package lib

import "testing"

// TestOnlyTestsReach is the only user of what the gate reports.
func TestOnlyTestsReach(t *testing.T) {
	var b Batch
	b.Add(TestOnly())
	b.Flush()
	if Sum(Fake{}, 2) != 0 || (Config{Debug: true}).String() == "" {
		t.Fatal("fixture")
	}
}
