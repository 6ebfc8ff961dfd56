package enginelog

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"grade10/internal/vtime"
)

// Property: any well-formed random event sequence round-trips through the
// text serialization bit-for-bit.
func TestSerializationRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		log := &Log{}
		ts := vtime.Time(0)
		for i := 0; i < 30; i++ {
			ts = ts.Add(vtime.Duration(rng.Intn(1000)) * vtime.Microsecond)
			path := fmt.Sprintf("/job/phase.%d", rng.Intn(5))
			switch rng.Intn(4) {
			case 0:
				log.Events = append(log.Events, Event{
					Kind: PhaseStart, Time: ts, Path: path, Machine: rng.Intn(8) - 1,
				})
			case 1:
				log.Events = append(log.Events, Event{Kind: PhaseEnd, Time: ts, Path: path})
			case 2:
				log.Events = append(log.Events, Event{
					Kind: Blocked, Time: ts,
					End:      ts.Add(vtime.Duration(rng.Intn(1000)) * vtime.Microsecond),
					Path:     path,
					Resource: []string{"gc", "msgqueue", "barrier"}[rng.Intn(3)],
				})
			default:
				log.Events = append(log.Events, Event{
					Kind: Counter, Time: ts,
					Name:  fmt.Sprintf("counter-%d", rng.Intn(3)),
					Value: float64(rng.Intn(1000)) / 4,
				})
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, log); err != nil {
			return false
		}
		back, err := readClean(&buf)
		if err != nil {
			return false
		}
		if len(back.Events) != len(log.Events) {
			return false
		}
		for i := range back.Events {
			if back.Events[i] != log.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
