// Package vector holds only the names the benchmark module (bench/) still
// compiles against. Every kernel has one loop, so core.WithStyle,
// ops.SelectBetweenAuto and ops.JoinN1 ignore a Style; the package goes once
// bench/ stops naming it (ROADMAP item 1(c)).
package vector

// Style is the ignored processing-style argument.
type Style uint8

// Vec512 is the Style value bench/ passes.
const Vec512 Style = 1
