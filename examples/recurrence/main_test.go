package main

// Example runs the program and checks what it prints, so go test catches
// any change in the figures the library reports.
func Example() {
	main()
	// Output:
	// computed F(1)..F(129) mod 1000000007 with one parallel prefix on D_4
	// communication steps: 8 (vs 127 sequential multiplications)
	// F(10)=55  F(50)=586268941  F(128)=700290221
}
