package cluster

import (
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/edgelist"
)

func TestGridShape(t *testing.T) {
	cases := []struct{ p, r, c int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {8, 2, 4},
		{9, 3, 3}, {12, 3, 4}, {16, 4, 4}, {7, 1, 7},
	}
	for _, c := range cases {
		r, col := GridShape(c.p)
		if r != c.r || col != c.c {
			t.Errorf("GridShape(%d) = %dx%d, want %dx%d", c.p, r, col, c.r, c.c)
		}
		if r*col != c.p {
			t.Errorf("GridShape(%d) does not multiply back", c.p)
		}
	}
}

func TestGridMatchesSerial(t *testing.T) {
	list := testList(t, 10, 91)
	src := edgelist.ListSource{List: list}
	root := firstConnected(list)
	for _, machines := range []int{1, 2, 4, 6, 9} {
		g, err := BuildGrid(src, Config{Machines: machines, Alpha: 64, Beta: 640})
		if err != nil {
			t.Fatalf("machines=%d: %v", machines, err)
		}
		res, err := g.Run(root)
		if err != nil {
			t.Fatalf("machines=%d: %v", machines, err)
		}
		checkTree(t, list, res)
		if res.Time <= 0 {
			t.Fatalf("machines=%d: no virtual time", machines)
		}
	}
}

func TestGridHybridSwitches(t *testing.T) {
	list := testList(t, 10, 92)
	g, err := BuildGrid(edgelist.ListSource{List: list}, Config{Machines: 4, Alpha: 32, Beta: 32})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(firstConnected(list))
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches == 0 {
		t.Fatal("no switches at alpha=32")
	}
	dirs := map[bfs.Direction]bool{}
	for _, l := range res.Levels {
		dirs[l.Direction] = true
	}
	if !dirs[bfs.TopDown] || !dirs[bfs.BottomUp] {
		t.Fatalf("directions: %v", dirs)
	}
	checkTree(t, list, res)
}

func TestGridVisitedMatches1D(t *testing.T) {
	list := testList(t, 10, 93)
	src := edgelist.ListSource{List: list}
	root := firstConnected(list)
	oneD, err := Build(src, Config{Machines: 4, Alpha: 64, Beta: 640})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := oneD.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	v1 := r1.Visited
	grid, err := BuildGrid(src, Config{Machines: 4, Alpha: 64, Beta: 640})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := grid.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Visited != v1 {
		t.Fatalf("visited differ: 1D %d, 2D %d", v1, r2.Visited)
	}
}

func TestGridCommLowerThan1D(t *testing.T) {
	// The 2D layout's collectives span sqrt(P) machines: for P=16, the
	// per-level frontier distribution moves ~4x fewer bytes than the
	// 1D allgather. Compare totals on identical traversals.
	list := testList(t, 11, 94)
	src := edgelist.ListSource{List: list}
	root := firstConnected(list)
	const machines = 16
	oneD, err := Build(src, Config{Machines: machines, Alpha: 64, Beta: 640})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := oneD.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	comm1 := r1.CommBytes
	grid, err := BuildGrid(src, Config{Machines: machines, Alpha: 64, Beta: 640})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := grid.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CommBytes >= comm1 {
		t.Fatalf("2D comm %d not below 1D comm %d", r2.CommBytes, comm1)
	}
	checkTree(t, list, r2)
}

func TestGridDeterministic(t *testing.T) {
	list := testList(t, 9, 95)
	src := edgelist.ListSource{List: list}
	root := firstConnected(list)
	var times []int64
	for trial := 0; trial < 2; trial++ {
		g, err := BuildGrid(src, Config{Machines: 6, Alpha: 32, Beta: 320})
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Run(root)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, int64(res.Time))
	}
	if times[0] != times[1] {
		t.Fatalf("times differ: %v", times)
	}
}

func TestGridOddVertexCount(t *testing.T) {
	const n = 773 // prime: uneven blocks and stripes everywhere
	l := &edgelist.List{NumVertices: n}
	for v := int64(0); v+1 < n; v++ {
		l.Edges = append(l.Edges, edgelist.Edge{U: v, V: v + 1})
	}
	for v := int64(0); v+31 < n; v += 11 {
		l.Edges = append(l.Edges, edgelist.Edge{U: v, V: v + 31})
	}
	g, err := BuildGrid(edgelist.ListSource{List: l}, Config{Machines: 6, Alpha: 8, Beta: 80})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != n {
		t.Fatalf("visited %d, want %d", res.Visited, n)
	}
	checkTree(t, l, res)
}

func TestGridNVMOffload(t *testing.T) {
	list := testList(t, 8, 96)
	src := edgelist.ListSource{List: list}
	root := firstConnected(list)
	ref, err := BuildGrid(src, Config{Machines: 4, Alpha: 64, Beta: 640})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, compress := range []bool{false, true} {
		g, err := BuildGrid(src, Config{
			Machines: 4, Alpha: 64, Beta: 640,
			ForwardOnNVM: true, Compress: compress,
		})
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		res, err := g.Run(root)
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		checkTree(t, list, res)
		for v := range res.Tree {
			if res.Tree[v] != refRes.Tree[v] {
				t.Fatalf("compress=%v: tree[%d] = %d, want %d (DRAM grid)",
					compress, v, res.Tree[v], refRes.Tree[v])
			}
		}
		report := g.MachineReport()
		if len(report) != 4 {
			t.Fatalf("compress=%v: %d machine statuses, want 4", compress, len(report))
		}
		for _, st := range report {
			if st.Dead {
				t.Fatalf("compress=%v: machine (%d,%d) reported dead", compress, st.Row, st.Col)
			}
			if st.Device.Reads == 0 {
				t.Errorf("compress=%v: machine (%d,%d) never read its device", compress, st.Row, st.Col)
			}
		}
		if err := g.Close(); err != nil {
			t.Fatalf("compress=%v: close: %v", compress, err)
		}
	}
}

func TestGridRejectsBadRoot(t *testing.T) {
	list := testList(t, 8, 97)
	g, err := BuildGrid(edgelist.ListSource{List: list}, Config{Machines: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(-1); err == nil {
		t.Error("negative root accepted")
	}
	if _, err := g.Run(list.NumVertices); err == nil {
		t.Error("out-of-range root accepted")
	}
}

func TestGridOwnerOfCoversAllVertices(t *testing.T) {
	list := testList(t, 8, 98)
	g, err := BuildGrid(edgelist.ListSource{List: list}, Config{Machines: 6})
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := g.Shape()
	counts := make([][]int64, rows)
	for i := range counts {
		counts[i] = make([]int64, cols)
	}
	for v := int64(0); v < list.NumVertices; v++ {
		i, j := g.ownerOf(v)
		if i < 0 || i >= rows || j < 0 || j >= cols {
			t.Fatalf("vertex %d owned by (%d,%d)", v, i, j)
		}
		counts[i][j]++
	}
	var total int64
	for i := range counts {
		for j := range counts[i] {
			total += counts[i][j]
			if counts[i][j] == 0 {
				t.Errorf("machine (%d,%d) owns no vertices", i, j)
			}
		}
	}
	if total != list.NumVertices {
		t.Fatalf("ownership covers %d of %d vertices", total, list.NumVertices)
	}
}

// TestRepeatedSearchTime checks that a search's virtual time excludes
// every earlier search on the same machines: the clocks never rewind, so
// searching one root twice must report the same time on a 2D grid and on
// a 1D cluster, with the forward graph in DRAM and on NVM.
func TestRepeatedSearchTime(t *testing.T) {
	list := testList(t, 9, 57)
	src := edgelist.ListSource{List: list}
	root := firstConnected(list)
	for _, nvm := range []bool{false, true} {
		cfg := Config{Machines: 4, Alpha: 32, Beta: 320, ForwardOnNVM: nvm}
		grid, err := BuildGrid(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		oneD, err := Build(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			run  func(int64) (*Result, error)
		}{{"grid", grid.Run}, {"1D", oneD.Run}} {
			first, err := c.run(root)
			if err != nil {
				t.Fatal(err)
			}
			second, err := c.run(root)
			if err != nil {
				t.Fatal(err)
			}
			if first.Time != second.Time {
				t.Errorf("%s (nvm %v): second search took %v, first %v",
					c.name, nvm, second.Time, first.Time)
			}
		}
		grid.Close()
		oneD.Close()
	}
}
