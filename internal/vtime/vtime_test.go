package vtime

import "testing"

func TestArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(500 * Millisecond)
	if t1 != Time(500*Millisecond) {
		t.Fatalf("Add: got %d", t1)
	}
	if d := t1.Sub(t0); d != 500*Millisecond {
		t.Fatalf("Sub: got %v", d)
	}
}

func TestSecondsConversion(t *testing.T) {
	if s := (2500 * Millisecond).Seconds(); s != 2.5 {
		t.Fatalf("Seconds: got %v", s)
	}
	if d := FromSeconds(1.5); d != 1500*Millisecond {
		t.Fatalf("FromSeconds: got %v", d)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{1, "1ns"},
		{1500, "1.5µs"},
		{250 * Millisecond, "250ms"},
		{1500 * Millisecond, "1.5s"},
		{-250 * Millisecond, "-250ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String(%d): got %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(1500 * Millisecond).String(); got != "1.500s" {
		t.Fatalf("Time.String: got %q", got)
	}
}

func TestMinMaxClamp(t *testing.T) {
	if Min(Time(3), Time(5)) != 3 || Min(Time(5), Time(3)) != 3 {
		t.Fatal("Min wrong")
	}
	if Max(Time(3), Time(5)) != 5 || Max(Time(5), Time(3)) != 5 {
		t.Fatal("Max wrong")
	}
}
