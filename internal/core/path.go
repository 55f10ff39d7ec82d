package core

import (
	"fmt"

	"repro/internal/graph"
)

// pathTo reconstructs the tree path from the source to v by walking parents.
// The returned slice starts at the source and ends at v. steps and the range
// check on each parent guard against corrupted parent arrays.
func pathTo[V graph.Vertex](parent []V, reached func(V) bool, v V) ([]V, error) {
	if uint64(v) >= uint64(len(parent)) {
		return nil, fmt.Errorf("core: vertex %d out of range", v)
	}
	if !reached(v) {
		return nil, fmt.Errorf("core: vertex %d was not reached", v)
	}
	var rev []V
	cur := v
	for steps := 0; ; steps++ {
		if steps > len(parent) {
			return nil, fmt.Errorf("core: parent chain from %d does not terminate", v)
		}
		rev = append(rev, cur)
		p := parent[cur]
		if p == cur {
			break // the source parents itself
		}
		if uint64(p) >= uint64(len(parent)) {
			return nil, fmt.Errorf("core: parent chain from %d leaves the graph at %d's parent %d", v, cur, p)
		}
		cur = p
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// PathTo returns the shortest path from the traversal's source to v
// (source first). It errors if v is out of range or unreached.
func (r *SSSPResult[V]) PathTo(v V) ([]V, error) {
	return pathTo(r.Parent, r.Reached, v)
}

// PathTo returns the BFS tree path from the traversal's source to v
// (source first). It errors if v is out of range or unreached.
func (r *BFSResult[V]) PathTo(v V) ([]V, error) {
	return pathTo(r.Parent, r.Reached, v)
}
