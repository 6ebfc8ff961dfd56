package rundir

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadMonitoring: arbitrary monitoring CSV never panics the parser, and
// whatever it accepts survives a WriteMonitoring round trip unchanged.
func FuzzReadMonitoring(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteMonitoring(&buf, sampleRun().Monitoring); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("machine,resource,capacity,start_ns,end_ns,avg\n# c\n\n0,cpu,4,0,100,2\n"))
	f.Add([]byte("0,cpu,8,0,100,NaN\n1,net,+Inf,0,100,1\n"))
	f.Add([]byte("0,cpu,8,0,100,1\n0,cpu,8,200,300,1\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		out, err := ReadMonitoring(bytes.NewReader(in))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := WriteMonitoring(&again, out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadMonitoring(strings.NewReader(again.String()))
		if err != nil {
			t.Fatalf("re-reading written monitoring: %v\n%s", err, again.String())
		}
		if !reflect.DeepEqual(back, out) {
			t.Fatalf("round trip changed the samples:\n got %+v\nwant %+v", back, out)
		}
	})
}
