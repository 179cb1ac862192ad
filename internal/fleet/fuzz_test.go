package fleet

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseTrace hammers the fleet trace parser with hostile input: the
// parser must never panic, every accepted trace must pass Validate, and
// writing it back out must reparse to the same trace (the CSV round
// trip the CLI relies on).
func FuzzParseTrace(f *testing.F) {
	f.Add(sampleTrace)
	f.Add("horizon,10\nclass,a,10,1024\nvm,x,0,5,a,0.5\n")
	f.Add("horizon,10\r\nclass,a,10,1024\r\nvm,x,0,5,a,0.5\r\n") // CRLF
	f.Add("vm,x,0,5,a,0.5\nhorizon,10\nclass,a,10,1024\n")       // out of order records
	f.Add("horizon,10\nclass,a,10,1024\nvm,x,5,1,a,0.5\nvm,y,1,1,a,0.5\n")
	f.Add("horizon,10\nvm,x,0,5,ghost,0.5\n")                 // unknown class
	f.Add("horizon,10\nclass,a,10,1024\nvm,x,0,5,a,NaN\n")    // NaN activity
	f.Add("horizon,NaN\nclass,a,10,1024\nvm,x,0,5,a,0.5\n")   // NaN horizon
	f.Add("horizon,1e300\nclass,a,10,1024\nvm,x,0,5,a,0.5\n") // horizon overflow
	f.Add("horizon,10\nclass,a,1e308,1024\nvm,x,0,5,a,0.5\n") // huge credit
	f.Add("horizon,10\nclass,a,10,1024\nvm,x,0,5,a\n")        // missing field
	f.Add("wat,1,2\n")                                        // unknown record
	f.Add("# empty\n\n")
	f.Add("horizon,10\nhorizon,10\nclass,a,10,1024\nvm,x,0,5,a,0.5\n") // dup horizon

	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ParseTrace(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted trace fails WriteCSV: %v", err)
		}
		back, err := ParseTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, buf.String())
		}
		if back.Horizon != tr.Horizon || len(back.Events) != len(tr.Events) ||
			len(back.Classes) != len(tr.Classes) {
			t.Fatalf("round trip changed shape: %+v vs %+v", back, tr)
		}
		for i := range tr.Events {
			a, b := tr.Events[i], back.Events[i]
			if a.Name != b.Name || a.Class != b.Class || a.Arrive != b.Arrive ||
				a.Lifetime != b.Lifetime || a.Activity != b.Activity {
				t.Fatalf("round trip changed event %d: %+v vs %+v", i, a, b)
			}
		}
	})
}
