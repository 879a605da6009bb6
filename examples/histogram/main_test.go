package main

// Example runs the program and checks what it prints, so go test catches
// any change in the figures the library reports.
func Example() {
	main()
	// Output:
	// input image: 256x192, gray levels used: [33, 94] of [0, 127]
	// equalized:   gray levels used: [0, 127]
	// CDF computed on D_4 in 8 communication steps (1024 messages)
	// dynamic range: 48% -> 100%
}
