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

// FuzzAnswerJSON holds the answer and event decoders to the reference
// codec in json_test.go. Whatever the new decoder accepts, the
// reference must accept too, with a bit-identical value; re-encoding
// that value must give the reference encoder's bytes; and decoding
// those bytes must give the value back exactly, up to the nil lists
// that encode as []. The decoder may reject what the reference
// accepted (keys that match only when case is ignored), never the
// other way round.
func FuzzAnswerJSON(f *testing.F) {
	results, events := encodeRows()
	for _, res := range results[len(results)-6:] {
		b, _ := res.MarshalJSON()
		f.Add(b)
	}
	for _, ev := range events[:3] {
		b, _ := MarshalEvent(ev)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var res Result
		if err := res.UnmarshalJSON(data); err == nil {
			var ref refResult
			if err := ref.UnmarshalJSON(data); err != nil {
				t.Fatalf("decoder accepts what the reference rejects (%v): %q", err, data)
			}
			if g, w := dumpResult(&res), dumpResult((*Result)(&ref)); g != w {
				t.Fatalf("decodes %q as\n%s\nreference\n%s", data, g, w)
			}
			enc, _ := res.MarshalJSON()
			want, err := refResult(res).MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, want) {
				t.Fatalf("encodes %s as\n%s\nreference\n%s", dumpResult(&res), enc, want)
			}
			var back Result
			if err := back.UnmarshalJSON(enc); err != nil || dumpResult(&back) != dumpResult(wireResult(&res)) {
				t.Fatalf("round trip of %s: %s (%v)", enc, dumpResult(&back), err)
			}
		}
		if ev, err := UnmarshalEvent(data); err == nil {
			ref, err := refUnmarshalEvent(data)
			if err != nil {
				t.Fatalf("event decoder accepts what the reference rejects (%v): %q", err, data)
			}
			if g, w := dumpEvent(ev), dumpEvent(ref); g != w {
				t.Fatalf("decodes event %q as\n%s\nreference\n%s", data, g, w)
			}
			enc, _ := MarshalEvent(ev)
			want, err := refMarshalEvent(ev)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, want) {
				t.Fatalf("encodes event %s as\n%s\nreference\n%s", dumpEvent(ev), enc, want)
			}
			back, err := UnmarshalEvent(enc)
			if err != nil || dumpEvent(back) != dumpEvent(wireEvent(ev)) {
				t.Fatalf("event round trip of %s: %v (%v)", enc, back, err)
			}
		}
	})
}
