// Command quiverdump builds a Clos topology, optionally fails links, and
// prints the Quiver decomposition of §3.4: per source/destination leaf
// pair, the symmetric path components with their weights and capacities —
// the control-plane state DRILL's data plane consumes. It is the runnable
// version of the paper's Figure 4/5 walk-through.
//
// Usage:
//
//	quiverdump [-spines 3] [-leaves 4] [-fail L0-S0,L2-S1] [-pair L3-L1]
//	quiverdump -topo hetero -spines 4 -leaves 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"drill/internal/quiver"
	"drill/internal/topo"
	"drill/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it returns 0 on success and 2 on a usage
// error, which it reports on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quiverdump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind   = fs.String("topo", "leafspine", "topology: leafspine | hetero")
		spines = fs.Int("spines", 3, "spine count")
		leaves = fs.Int("leaves", 4, "leaf count")
		fails  = fs.String("fail", "", "links to fail, e.g. L0-S0,L2-S1")
		pair   = fs.String("pair", "", "only show this src-dst leaf pair, e.g. L3-L1")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := dump(stdout, *kind, *spines, *leaves, *fails, *pair); err != nil {
		fmt.Fprintf(stderr, "quiverdump: %v\n", err)
		return 2
	}
	return 0
}

func dump(w io.Writer, kind string, spines, leaves int, fails, pair string) error {
	var t *topo.Topology
	switch kind {
	case "leafspine":
		t = topo.LeafSpine(topo.LeafSpineConfig{Spines: spines, Leaves: leaves,
			HostsPerLeaf: 1, HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps})
	case "hetero":
		t = topo.Heterogeneous(topo.HeterogeneousConfig{Spines: spines, Leaves: leaves,
			HostsPerLeaf: 1})
	default:
		return fmt.Errorf("unknown topology %q", kind)
	}

	var spineIDs []topo.NodeID
	for _, n := range t.Nodes {
		if n.Kind == topo.Spine {
			spineIDs = append(spineIDs, n.ID)
		}
	}
	leafAt := func(i int) (topo.NodeID, error) {
		if i < 0 || i >= len(t.Leaves) {
			return 0, fmt.Errorf("leaf L%d out of range", i)
		}
		return t.Leaves[i], nil
	}
	spineAt := func(i int) (topo.NodeID, error) {
		if i < 0 || i >= len(spineIDs) {
			return 0, fmt.Errorf("spine S%d out of range", i)
		}
		return spineIDs[i], nil
	}

	if fails != "" {
		for _, f := range strings.Split(fails, ",") {
			parts := strings.SplitN(strings.TrimSpace(f), "-", 2)
			if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
				return fmt.Errorf("bad -fail entry %q (want L0-S0)", f)
			}
			li, err1 := strconv.Atoi(strings.TrimPrefix(parts[0], "L"))
			si, err2 := strconv.Atoi(strings.TrimPrefix(parts[1], "S"))
			if err1 != nil || err2 != nil {
				return fmt.Errorf("bad -fail entry %q", f)
			}
			leaf, err := leafAt(li)
			if err != nil {
				return err
			}
			spine, err := spineAt(si)
			if err != nil {
				return err
			}
			links := t.LinkBetween(leaf, spine)
			if len(links) == 0 {
				return fmt.Errorf("no up link L%d-S%d", li, si)
			}
			t.FailLink(links[0])
			fmt.Fprintf(w, "failed L%d-S%d\n", li, si)
		}
	}

	r := topo.ComputeRoutes(t)
	q := quiver.Build(r)

	show := func(src, dst topo.NodeID) {
		comps := q.Decompose(src, dst)
		fmt.Fprintf(w, "\n%s -> %s: %d symmetric component(s)\n",
			t.Nodes[src].Name, t.Nodes[dst].Name, len(comps))
		paths := r.Paths(src, dst)
		for ci := range comps {
			c := &comps[ci]
			fmt.Fprintf(w, "  component %d  weight=%d  capacity=%v\n", ci, c.Weight, c.Capacity)
			for _, p := range paths {
				if !q.Member(c, p) {
					continue
				}
				names := make([]string, 0, len(p)+1)
				for _, nid := range r.PathNodes(src, p) {
					names = append(names, t.Nodes[nid].Name)
				}
				fmt.Fprintf(w, "    %s\n", strings.Join(names, " -> "))
			}
		}
	}

	if pair != "" {
		errPair := errors.New("bad -pair (want L3-L1)")
		parts := strings.SplitN(pair, "-", 2)
		if len(parts) != 2 {
			return errPair
		}
		si, err1 := strconv.Atoi(strings.TrimPrefix(parts[0], "L"))
		di, err2 := strconv.Atoi(strings.TrimPrefix(parts[1], "L"))
		if err1 != nil || err2 != nil {
			return errPair
		}
		src, err := leafAt(si)
		if err != nil {
			return err
		}
		dst, err := leafAt(di)
		if err != nil {
			return err
		}
		show(src, dst)
		return nil
	}
	for _, src := range t.Leaves {
		for _, dst := range t.Leaves {
			if src != dst {
				show(src, dst)
			}
		}
	}
	return nil
}
