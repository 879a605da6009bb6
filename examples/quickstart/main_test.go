package main

// Example runs the program and checks what it prints, so go test catches
// any change in the figures the library reports.
func Example() {
	main()
	// Output:
	// D_3: 32 nodes, degree 3, diameter 6, clusters of 4 nodes
	// node 5: class 0, cluster 1, local 1, neighbors [4 7 21]
	// shortest path 3 -> 28: [3 2 0 16 20 28] (distance 5)
	//
	// prefix sums of 1..32: last = 528
	//   communication steps: 6 (Theorem 1: at most 7)
	//   computation rounds:  6 (Theorem 1: at most 6)
	//
	// sorted 32 keys: first=0 last=31
	//   communication steps: 35 (Theorem 2: at most 54)
	//   comparison rounds:   15 (Theorem 2: at most 18)
}
