// Package vector holds only the names the benchmark module (bench/) still
// compiles against. The processing style is the CPU's: package bitutil
// detects AVX-512 once, at start-up, and its kernels run their vector path
// wherever the CPU has it. So core.WithStyle, ops.SelectBetweenAuto and
// ops.JoinN1 ignore a Style; the package goes once bench/ stops naming it
// (ROADMAP item 1(d)).
package vector

// Style is the ignored processing-style argument.
type Style uint8

// Vec512 is the Style value bench/ passes.
const Vec512 Style = 1
