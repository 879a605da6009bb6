package topology

import (
	"reflect"
	"sync"
	"testing"
)

// TestTablesMatchMethods checks the node tables, entry by entry, against the
// Comm methods they replace, for every family at orders 1-7, and that the
// three families share one table set per order.
func TestTablesMatchMethods(t *testing.T) {
	for n := 1; n <= 7; n++ {
		var shared *Tables
		for _, fam := range Families() {
			c, err := CommByID(fam, n)
			if err != nil {
				t.Fatal(err)
			}
			tab := c.Tables()
			if shared == nil {
				shared = tab
			} else if tab != shared {
				t.Errorf("%s: Tables() is not the set the other families return at order %d", c.Name(), n)
			}
			N := c.Nodes()
			if len(tab.Node) != N || len(tab.AtData) != N || len(tab.Key[0]) != N || len(tab.Key[1]) != N {
				t.Fatalf("%s: table lengths %d/%d/%d/%d, want %d", c.Name(),
					len(tab.Node), len(tab.AtData), len(tab.Key[0]), len(tab.Key[1]), N)
			}
			for u := 0; u < N; u++ {
				nd := tab.Node[u]
				if int(nd.Data) != c.DataIndex(u) || int(nd.Local) != c.LocalID(u) ||
					int(nd.Cluster) != c.ClusterID(u) || int(nd.Class) != c.Class(u) {
					t.Fatalf("%s: Node[%d] = %+v, want data %d local %d cluster %d class %d", c.Name(), u, nd,
						c.DataIndex(u), c.LocalID(u), c.ClusterID(u), c.Class(u))
				}
			}
			mask := c.ClusterSize() - 1
			for i := 0; i < N; i++ {
				v := c.NodeAtDataIndex(i)
				if int(tab.AtData[i]) != v {
					t.Fatalf("%s: AtData[%d] = %d, want %d", c.Name(), i, tab.AtData[i], v)
				}
				// A class-c node's local ID is the address field at
				// NodeDimOffset(c): part I for class 0, part II for class 1.
				for class := 0; class < 2; class++ {
					if want := v >> c.NodeDimOffset(class) & mask; int(tab.Key[class][i]) != want {
						t.Fatalf("%s: Key[%d][%d] = %d, want %d (element %d on node %d)",
							c.Name(), class, i, tab.Key[class][i], want, i, v)
					}
				}
			}
		}
	}
}

// TestTablesConcurrentFirstUse has 8 goroutines take the tables of orders
// 1-7 at once, through every family and through a fresh set of lazily built
// slots (so the first build is raced even when an earlier test already took
// the process-wide tables), and checks they all see one identical set per
// order. Run under -race it proves the lazy build safe.
func TestTablesConcurrentFirstUse(t *testing.T) {
	const workers, maxOrder = 8, 7
	var fresh [maxOrder + 1]tableSet
	var got, gotFresh [workers][maxOrder + 1]*Tables
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for n := 1; n <= maxOrder; n++ {
				c, err := CommByID(Families()[(w+n)%len(Families())], n)
				if err != nil {
					t.Error(err)
					return
				}
				got[w][n] = c.Tables()
				gotFresh[w][n] = fresh[n].get(shared[n])
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for n := 1; n <= maxOrder; n++ {
		for w := 1; w < workers; w++ {
			if got[w][n] != got[0][n] || gotFresh[w][n] != gotFresh[0][n] {
				t.Fatalf("order %d: goroutine %d saw a different table set than goroutine 0", n, w)
			}
		}
		if !reflect.DeepEqual(gotFresh[0][n], got[0][n]) {
			t.Errorf("order %d: a fresh build differs from the shared tables", n)
		}
	}
}
