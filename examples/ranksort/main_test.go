package main

// Example runs the program and checks what it prints, so go test catches
// any change in the figures the library reports.
func Example() {
	main()
	// Output:
	// sorted 256 jobs (8 per node) on D_3
	// communication steps: 35 — identical to the 1-key-per-node sort (6n²-7n+2 = 35)
	// first jobs out:
	//   prio 0  t=  1051  job-0050
	//   prio 0  t=  1799  job-0228
	//   prio 0  t=  1813  job-0120
	//   prio 0  t=  2794  job-0107
	//   prio 0  t=  2796  job-0008
	// last job out: prio 4  t= 96673  job-0032
}
