// Package dcomm provides the elementary dual-cube communication steps that
// the paper's algorithms are built from: the compiled schedules of the
// cluster technique (Section 3) and of the recursive technique's sort
// (Sections 4 and 6), the front that executes them, and their fault
// rewrites.
package dcomm
