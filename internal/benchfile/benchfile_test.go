package benchfile

import "testing"

// The committed baseline must keep parsing into the one schema both
// commands share.
func TestLoadBaseline(t *testing.T) {
	f, err := Load("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Datapath) == 0 || len(f.Exhibits) == 0 {
		t.Fatalf("baseline parsed to %d datapath rows and %d exhibits", len(f.Datapath), len(f.Exhibits))
	}
	for _, d := range f.Datapath {
		if d.Name == "" || d.PpsPerCore <= 0 || d.Packets <= 0 {
			t.Errorf("datapath row %+v is incomplete", d)
		}
	}
}
