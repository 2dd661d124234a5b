package surf

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReadCSVDataset hammers the dataset CSV reader with arbitrary
// bytes: any input must either be rejected with an error or yield a
// dataset with a coherent shape that survives a write/read round
// trip. Run as a smoke step in CI (-fuzztime=10s) and as a plain seed
// regression test otherwise.
func FuzzReadCSVDataset(f *testing.F) {
	for _, s := range []string{
		"x,y\n1,2\n3,4\n",
		"x\n",
		"a,b,c\n1,2,3\n4,5,6\n",
		"x,y\n1\n",
		"x,y\nNaN,Inf\n",
		"x,y\n-Inf,+Inf\n",
		"x,x\n1,1\n",
		"",
		"x,y\n1,2\n3,foo\n",
		"\"x\",\"y\"\n1e300,-1e-300\n",
		"x,y\r\n0x1p-2,1_0.5\r\n",
		"a\nb\"c\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ReadCSVDataset(bytes.NewReader(data))
		if err != nil {
			return
		}
		if ds.Len() < 0 || len(ds.Names()) == 0 {
			t.Fatalf("parsed dataset with shape %d rows × %d cols", ds.Len(), len(ds.Names()))
		}
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV on parsed dataset: %v", err)
		}
		back, err := ReadCSVDataset(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v\ninput: %q", err, buf.String())
		}
		if back.Len() != ds.Len() || len(back.Names()) != len(ds.Names()) {
			t.Fatalf("round trip shape %d×%d, want %d×%d",
				back.Len(), len(back.Names()), ds.Len(), len(ds.Names()))
		}
	})
}

// FuzzReadWorkloadCSV is the same contract for the query-log reader:
// reject or parse into a log whose shape is consistent and, when
// non-empty, survives a write/read round trip.
func FuzzReadWorkloadCSV(f *testing.F) {
	for _, s := range []string{
		"x1,l1,y\n0.5,0.1,3\n",
		"x1,x2,l1,l2,y\n0.5,0.5,0.1,0.1,42\n0.2,0.9,0.05,0.02,7\n",
		"x1,l1,y\n",
		"x1,y\n1,2\n",
		"x1,l1,y\nNaN,Inf,-0\n",
		"",
		"x1,l1,y\n1,2\n",
		"x1,l1,y\na,b,c\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wl, err := ReadWorkloadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got := len(wl.Labels()); got != wl.Len() {
			t.Fatalf("Labels() has %d entries for %d queries", got, wl.Len())
		}
		if wl.Len() == 0 {
			return // an empty log has no dimensionality to serialize
		}
		var buf bytes.Buffer
		if err := wl.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV on parsed workload: %v", err)
		}
		back, err := ReadWorkloadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v\ninput: %q", err, buf.String())
		}
		if back.Len() != wl.Len() {
			t.Fatalf("round trip length %d, want %d", back.Len(), wl.Len())
		}
	})
}

// FuzzLoadSurrogate feeds arbitrary bytes to both artifact readers:
// each must return either success or ErrBadArtifact, and never panic.
// The checked-in corpus holds one small artifact of each format
// version; mutations of the version-1 seed reach the gob and ensemble
// decoders without a checksum in the way.
func FuzzLoadSurrogate(f *testing.F) {
	f.Add([]byte("surfengine 2 00000000\n"))
	f.Add([]byte("surfengine 1\n"))
	eng, err := Open(crimeGrid(200, 1), Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := ReadSurrogateInfo(bytes.NewReader(data)); err != nil && !errors.Is(err, ErrBadArtifact) {
			t.Fatalf("ReadSurrogateInfo: %v is not ErrBadArtifact", err)
		}
		if err := eng.LoadSurrogate(bytes.NewReader(data)); err != nil && !errors.Is(err, ErrBadArtifact) {
			t.Fatalf("LoadSurrogate: %v is not ErrBadArtifact", err)
		}
	})
}
