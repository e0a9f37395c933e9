package sweep

import (
	"fmt"
	"strconv"
	"strings"
)

// JobTable is the job registry the engine and the distributed
// coordinator share: jobs by id, their submission order and the "jN"
// id counter. Ids are never reused, not even after Remove. It has no
// lock of its own; callers hold theirs around every call. The zero
// value is an empty table.
type JobTable[J any] struct {
	jobs  map[string]J
	order []string
	last  int // highest id number issued or seen
}

// Add registers j under the next "jN" id and returns the id.
func (t *JobTable[J]) Add(j J) string {
	t.last++
	id := fmt.Sprintf("j%d", t.last)
	t.put(id, j)
	return id
}

// Insert registers j under an existing id (a replayed job) and moves
// the counter past it, so later Adds continue the numbering.
func (t *JobTable[J]) Insert(id string, j J) {
	t.Burn(id)
	t.put(id, j)
}

// Burn moves the counter past id without registering anything, so no
// later Add can issue it (a manifest that could not be replayed).
func (t *JobTable[J]) Burn(id string) {
	t.last = max(t.last, JobSeq(id))
}

func (t *JobTable[J]) put(id string, j J) {
	if t.jobs == nil {
		t.jobs = make(map[string]J)
	}
	t.jobs[id] = j
	t.order = append(t.order, id)
}

// Get returns the job registered under id, or the zero J.
func (t *JobTable[J]) Get(id string) J { return t.jobs[id] }

// List returns every registered job in submission order.
func (t *JobTable[J]) List() []J {
	out := make([]J, len(t.order))
	for i, id := range t.order {
		out[i] = t.jobs[id]
	}
	return out
}

// Remove forgets the job registered under id and returns it.
func (t *JobTable[J]) Remove(id string) (J, bool) {
	j, ok := t.jobs[id]
	if ok {
		delete(t.jobs, id)
		for i, oid := range t.order {
			if oid == id {
				t.order = append(t.order[:i], t.order[i+1:]...)
				break
			}
		}
	}
	return j, ok
}

// JobSeq returns the number of a "jN" job id (0 for any other id).
func JobSeq(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "j"))
	return n
}
