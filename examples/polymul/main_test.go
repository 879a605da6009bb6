package main

// Example runs the program and checks what it prints, so go test catches
// any change in the figures the library reports.
func Example() {
	main()
	// Output:
	// multiplied deg-5 x deg-63 polynomials on D_4 via 3 NTTs
	// total communication: 57 steps (3 x (6n-5) = 57)
	// product: deg 68, leading coeffs [1 6 16 26 31 32 32 32]...
}
