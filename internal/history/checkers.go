package history

import "fmt"

// CheckWeakRegularity checks the MWRegWeak condition of Shao et al. [14]
// (the condition the paper's lower bound is stated for): for every completed
// read there is a linearization of that read together with all writes that
// respects real-time precedence and the register's sequential specification.
//
// With distinct written values this is equivalent to requiring, for every
// completed read rd returning v:
//
//   - v was written by some write w with ¬(rd ≺ w), and no other write w'
//     satisfies w ≺ w' ≺ rd (otherwise w' would have to be linearized between
//     w and rd, contradicting the sequential specification); or
//   - v = v0 and no write completes before rd is invoked.
//
// It returns nil if the condition holds and a *Violation otherwise.
func CheckWeakRegularity(h *History) error {
	return checkWeakRegularity(h, h.Writes())
}

// checkWeakRegularity is CheckWeakRegularity over h's writes, listed once by
// the caller.
func checkWeakRegularity(h *History, writes []*Op) error {
	for _, rd := range h.CompletedReads() {
		if err := checkReadRegular(h, writes, rd); err != nil {
			return err
		}
	}
	return nil
}

// checkReadRegular checks weak regularity for one read against the history's
// writes.
func checkReadRegular(h *History, writes []*Op, rd *Op) error {
	w := h.writeOfValue(rd.Value)
	if w == nil {
		if !rd.Value.Equal(h.V0) {
			return &Violation{Condition: "weak regularity", Read: rd, Detail: "read returned a value never written"}
		}
		// v0 is only allowed if no write completed before the read started.
		for _, wr := range writes {
			if wr.Precedes(rd) {
				return &Violation{Condition: "weak regularity", Read: rd,
					Detail: fmt.Sprintf("read returned the initial value although %v completed before it", wr)}
			}
		}
		return nil
	}
	if rd.Precedes(w) {
		return &Violation{Condition: "weak regularity", Read: rd,
			Detail: fmt.Sprintf("read returned the value of %v, which was invoked only after the read returned", w)}
	}
	for _, wr := range writes {
		if wr == w {
			continue
		}
		if w.Precedes(wr) && wr.Precedes(rd) {
			return &Violation{Condition: "weak regularity", Read: rd,
				Detail: fmt.Sprintf("read skipped %v, which completely follows the returned write %v and precedes the read", wr, w)}
		}
	}
	return nil
}

// CheckStrongRegularity checks the MWRegWO condition ("write order"): weak
// regularity plus the requirement that all reads can be explained by one
// common serialization of the writes. With distinct values this reduces to
// the following constraint graph over writes being acyclic:
//
//   - w1 -> w2 whenever w1 ≺ w2 in real time; and
//   - w' -> w(rd) for every completed read rd returning the value of w(rd)
//     and every other write w' that completed before rd was invoked (those
//     writes must be serialized before the write the read observed).
//
// A topological order of this graph is a single write order under which every
// read returns the latest preceding relevant write, which is the witness
// MWRegWO asks for. The function returns nil if the condition holds.
func CheckStrongRegularity(h *History) error {
	writes := h.Writes()
	if err := checkWeakRegularity(h, writes); err != nil {
		return err
	}
	index := make(map[*Op]int, len(writes))
	for i, w := range writes {
		index[w] = i
	}
	adj := make([][]int, len(writes))
	addEdge := func(from, to int) {
		if from == to {
			return
		}
		adj[from] = append(adj[from], to)
	}
	for i, w1 := range writes {
		for j, w2 := range writes {
			if i != j && w1.Precedes(w2) {
				addEdge(i, j)
			}
		}
	}
	for _, rd := range h.CompletedReads() {
		w := h.writeOfValue(rd.Value)
		if w == nil {
			// Initial value: every write that completed before the read must
			// not exist (weak regularity already guarantees this).
			continue
		}
		for _, other := range writes {
			if other != w && other.Precedes(rd) {
				addEdge(index[other], index[w])
			}
		}
	}
	if cyc := findCycle(adj); cyc != nil {
		names := make([]string, len(cyc))
		for i, idx := range cyc {
			names[i] = writes[idx].String()
		}
		return &Violation{Condition: "strong regularity", Read: nil,
			Detail: fmt.Sprintf("no single write order can explain all reads; conflicting constraints among %v", names)}
	}
	return nil
}

// CheckStrongSafety checks the strongly safe condition of Appendix A: there
// is a linearization of the writes such that every read with no concurrent
// writes returns the value of the last write serialized before it (or v0).
// Reads that are concurrent with some write are unconstrained. With distinct
// values this again reduces to acyclicity of a constraint graph.
func CheckStrongSafety(h *History) error {
	writes := h.Writes()
	index := make(map[*Op]int, len(writes))
	for i, w := range writes {
		index[w] = i
	}
	adj := make([][]int, len(writes))
	addEdge := func(from, to int) {
		if from == to {
			return
		}
		adj[from] = append(adj[from], to)
	}
	for i, w1 := range writes {
		for j, w2 := range writes {
			if i != j && w1.Precedes(w2) {
				addEdge(i, j)
			}
		}
	}
	for _, rd := range h.CompletedReads() {
		if hasConcurrentWrite(writes, rd) {
			continue
		}
		w := h.writeOfValue(rd.Value)
		if w == nil {
			if !rd.Value.Equal(h.V0) {
				return &Violation{Condition: "strong safety", Read: rd, Detail: "read returned a value never written"}
			}
			for _, wr := range writes {
				if wr.Precedes(rd) {
					return &Violation{Condition: "strong safety", Read: rd,
						Detail: fmt.Sprintf("write-free read returned v0 although %v precedes it", wr)}
				}
			}
			continue
		}
		if !w.Precedes(rd) {
			return &Violation{Condition: "strong safety", Read: rd,
				Detail: fmt.Sprintf("write-free read returned %v, which does not precede it", w)}
		}
		for _, other := range writes {
			if other != w && other.Precedes(rd) {
				addEdge(index[other], index[w])
			}
		}
	}
	if cyc := findCycle(adj); cyc != nil {
		return &Violation{Condition: "strong safety", Read: nil,
			Detail: fmt.Sprintf("no write serialization satisfies all write-free reads (cycle of length %d)", len(cyc))}
	}
	return nil
}

// hasConcurrentWrite reports whether any of writes is concurrent with rd.
func hasConcurrentWrite(writes []*Op, rd *Op) bool {
	for _, w := range writes {
		if !w.Precedes(rd) && !rd.Precedes(w) {
			return true
		}
	}
	return false
}

// findCycle returns some cycle in the directed graph (as a list of vertex
// indices) or nil if the graph is acyclic.
func findCycle(adj [][]int) []int {
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make([]int, len(adj))
	parent := make([]int, len(adj))
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		state[u] = inStack
		for _, v := range adj[u] {
			switch state[v] {
			case unvisited:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case inStack:
				// Reconstruct the cycle v -> ... -> u -> v.
				cycle = []int{v}
				for x := u; x != v && x != -1; x = parent[x] {
					cycle = append(cycle, x)
				}
				return true
			}
		}
		state[u] = done
		return false
	}
	for i := range adj {
		if state[i] == unvisited && dfs(i) {
			return cycle
		}
	}
	return nil
}
