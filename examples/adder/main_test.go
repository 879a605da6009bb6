package main

// Example runs the program and checks what it prints, so go test catches
// any change in the figures the library reports.
func Example() {
	main()
	// Output:
	// 128-bit carry-lookahead addition on D_4
	//   a   = ede0fb870b00cd4f8ff4047a25f8f6a3
	//   b   = 48c9aabd71b471927c648417f7cd5de9
	//   a+b = 136aaa6447cb53ee20c5888921dc6548c
	// carry chain resolved in 8 communication steps (ripple would take 128)
}
