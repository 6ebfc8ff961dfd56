package core

import "testing"

// TestParseInstanceKey checks ParseInstanceKey inverts InstanceKey, splits at
// the last '@', and rejects keys InstanceKey cannot produce.
func TestParseInstanceKey(t *testing.T) {
	for _, tc := range []struct {
		resource string
		machine  int
	}{{"cpu", 0}, {"net-in", 12}, {"lock", GlobalMachine}, {"a@b", 3}} {
		res, m, ok := ParseInstanceKey(InstanceKey(tc.resource, tc.machine))
		if !ok || res != tc.resource || m != tc.machine {
			t.Errorf("ParseInstanceKey(InstanceKey(%q, %d)) = %q, %d, %v",
				tc.resource, tc.machine, res, m, ok)
		}
	}
	for _, key := range []string{"cpu", "@0", "cpu@", "cpu@x", "cpu@-1"} {
		if _, _, ok := ParseInstanceKey(key); ok {
			t.Errorf("ParseInstanceKey(%q) accepted a malformed key", key)
		}
	}
}
