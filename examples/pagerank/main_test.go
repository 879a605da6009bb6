package main

// Example runs the program and checks what it prints, so go test catches
// any change in the figures the library reports.
func Example() {
	main()
	// Output:
	// PageRank over 128 pages on D_4 converged in 40 iterations
	// communication: 640 collective rounds total (16 per iteration)
	// top page: 2 (rank 0.0438); uniform would be 0.0078
}
