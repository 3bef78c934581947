package faultpoint

import (
	"errors"
	"sync"
	"testing"
)

func TestDisarmedPointIsFree(t *testing.T) {
	p := newPoint("test")
	if p.Armed() {
		t.Fatal("fresh point armed")
	}
	if err := p.Hit(); err != nil {
		t.Fatalf("disarmed Hit: %v", err)
	}
	p.MustHit() // must not panic
}

func TestArmDisarm(t *testing.T) {
	p := newPoint("test")
	want := errors.New("injected")
	p.Arm(func() error { return want })
	if !p.Armed() {
		t.Fatal("point not armed")
	}
	if err := p.Hit(); !errors.Is(err, want) {
		t.Fatalf("Hit: %v", err)
	}
	p.Disarm()
	if p.Armed() || p.Hit() != nil {
		t.Fatal("point still armed after Disarm")
	}
}

func TestMustHitEscalatesToPanic(t *testing.T) {
	p := newPoint("test")
	want := errors.New("injected")
	p.Arm(func() error { return want })
	defer func() {
		v := recover()
		if err, ok := v.(error); !ok || !errors.Is(err, want) {
			t.Fatalf("recovered %v", v)
		}
	}()
	p.MustHit()
	t.Fatal("MustHit did not panic")
}

func TestPointsAndDisarmAll(t *testing.T) {
	names := map[string]bool{}
	for _, p := range Points() {
		names[p.Name()] = true
		p.Arm(func() error { return errors.New("x") })
	}
	for _, want := range []string{"morsel-claim", "kernel-body",
		"concat-fixup", "admission-enqueue", "close-drain"} {
		if !names[want] {
			t.Fatalf("missing point %q", want)
		}
	}
	DisarmAll()
	for _, p := range Points() {
		if p.Armed() {
			t.Fatalf("point %q armed after DisarmAll", p.Name())
		}
	}
}

func TestConcurrentArmHit(t *testing.T) {
	p := newPoint("test")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				p.Arm(func() error { return nil })
				_ = p.Hit()
				p.Disarm()
			}
		}()
	}
	wg.Wait()
}
