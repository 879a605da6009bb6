// Fixture for the schedtopo analyzer: this package's import path ends in
// /dcomm, so it stands in for the schedule builder, which must stay generic
// over topology.Comm — every way of reaching the concrete DualCube type is
// flagged.
package fixture

import (
	"dualcube/internal/topology"
)

// badDecl names the concrete type in a declaration.
func badDecl() {
	var d *topology.DualCube // want `references concrete type topology\.DualCube`
	_ = d
}

// badConstructors obtain a concrete dual-cube from the topology package; the
// constructor reference is the flagged introduction site.
func badConstructors() {
	d, err := topology.NewDualCube(3) // want `calls topology\.NewDualCube, whose signature exposes the concrete \*topology\.DualCube`
	if err != nil {
		return
	}
	_ = d.Nodes()                 // want `calls topology\.Nodes, whose signature exposes the concrete \*topology\.DualCube`
	m := topology.MustDualCube(2) // want `calls topology\.MustDualCube, whose signature exposes the concrete \*topology\.DualCube`
	_ = m
	s, _ := topology.Shared(3) // want `calls topology\.Shared, whose signature exposes the concrete \*topology\.DualCube`
	_ = s
}

// badAssert re-specializes a generic Comm by asserting the concrete type.
func badAssert(c topology.Comm) int {
	if d, ok := c.(*topology.DualCube); ok { // want `references concrete type topology\.DualCube`
		return d.Order() // want `calls topology\.Order, whose signature exposes the concrete \*topology\.DualCube`
	}
	return 0
}

// badSkeleton tunnels to the concrete skeleton through the Z-cube.
func badSkeleton(z *topology.ZCube) {
	_ = z.Skeleton() // want `calls topology\.Skeleton, whose signature exposes the concrete \*topology\.DualCube`
}
