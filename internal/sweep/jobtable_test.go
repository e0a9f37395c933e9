package sweep

import (
	"reflect"
	"testing"
)

// TestJobTable pins the registry the engine and the coordinator share:
// ids are issued in order and never reused after Remove, listing keeps
// submission order, and replayed or burned ids move the numbering past
// themselves.
func TestJobTable(t *testing.T) {
	var tb JobTable[string]
	for i, want := range []string{"j1", "j2", "j3"} {
		if id := tb.Add(want + "-job"); id != want {
			t.Fatalf("Add #%d issued %s, want %s", i, id, want)
		}
	}
	if j, ok := tb.Remove("j3"); !ok || j != "j3-job" {
		t.Fatalf("Remove(j3) = %q, %v", j, ok)
	}
	if _, ok := tb.Remove("j3"); ok {
		t.Fatal("second Remove(j3) reported success")
	}
	if id := tb.Add("j4-job"); id != "j4" {
		t.Fatalf("Add after Remove issued %s, want j4 (no reuse)", id)
	}
	tb.Remove("j1")
	if got, want := tb.List(), []string{"j2-job", "j4-job"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	if j := tb.Get("j2"); j != "j2-job" {
		t.Fatalf("Get(j2) = %q", j)
	}
	if j := tb.Get("j1"); j != "" {
		t.Fatalf("removed job still found: %q", j)
	}

	var replay JobTable[string]
	replay.Burn("j7")
	replay.Insert("j3", "replayed")
	if id := replay.Add("fresh"); id != "j8" {
		t.Fatalf("Add after Burn(j7) and Insert(j3) issued %s, want j8", id)
	}
	replay.Insert("j9", "late")
	if id := replay.Add("fresh2"); id != "j10" {
		t.Fatalf("Add after Insert(j9) issued %s, want j10", id)
	}
	if got, want := replay.List(), []string{"replayed", "fresh", "late", "fresh2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	if n := JobSeq("w3"); n != 0 {
		t.Fatalf("JobSeq(w3) = %d, want 0 for a foreign id", n)
	}
}
