package main

// Example runs the program and checks what it prints, so go test catches
// any change in the figures the library reports.
func Example() {
	main()
	// Output:
	// compacted 128 events to 53 high-severity events on D_4
	// prefix ran in 8 communication steps (1024 messages)
	// first kept: ID 0 (severity 3); last kept: ID 127 (severity 4)
}
