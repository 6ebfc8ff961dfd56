package fleet

import (
	"fmt"
	"strings"
	"testing"
)

func TestSchedulerBurstAdmission(t *testing.T) {
	s := NewScheduler(2, 3)

	// A burst of 7 registrations: 2 active, 3 queued, 2 shed.
	var decisions []Decision
	for i := 0; i < 7; i++ {
		d, err := s.Admit(fmt.Sprintf("run-%d", i))
		if err != nil {
			t.Fatalf("admit run-%d: %v", i, err)
		}
		decisions = append(decisions, d)
	}
	want := []Decision{
		DecisionActive, DecisionActive,
		DecisionQueued, DecisionQueued, DecisionQueued,
		DecisionShed, DecisionShed,
	}
	for i, d := range decisions {
		if d != want[i] {
			t.Fatalf("admit %d = %s, want %s", i, d, want[i])
		}
	}
	if a, q, shed := s.Counts(); a != 2 || q != 3 || shed != 2 {
		t.Fatalf("counts = (%d, %d, %d), want (2, 3, 2)", a, q, shed)
	}

	// Duplicates error without shedding, naming where the run sits.
	if _, err := s.Admit("run-0"); err == nil || !strings.Contains(err.Error(), "already active") {
		t.Fatalf("re-admitting an active run: %v", err)
	}
	if _, err := s.Admit("run-2"); err == nil || !strings.Contains(err.Error(), "already queued") {
		t.Fatalf("re-admitting a queued run: %v", err)
	}
	if _, _, shed := s.Counts(); shed != 2 {
		t.Fatalf("duplicate admits changed the shed counter to %d", shed)
	}
}

func TestSchedulerReleasePromotesFIFO(t *testing.T) {
	s := NewScheduler(2, 4)
	for i := 0; i < 5; i++ {
		if _, err := s.Admit(fmt.Sprintf("run-%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	// Releasing one active slot promotes the oldest queued run, in order.
	promoted := s.Release("run-0")
	if len(promoted) != 1 || promoted[0] != "run-2" {
		t.Fatalf("promoted = %v, want [run-2]", promoted)
	}
	if _, err := s.Admit("run-2"); err == nil || !strings.Contains(err.Error(), "already active") {
		t.Fatalf("run-2 not active after promotion: %v", err)
	}

	// Releasing a queued run does not free an active slot.
	if promoted := s.Release("run-4"); promoted != nil {
		t.Fatalf("releasing a queued run promoted %v", promoted)
	}
	if a, q, _ := s.Counts(); a != 2 || q != 1 {
		t.Fatalf("counts = (%d, %d), want (2, 1)", a, q)
	}

	// Unknown IDs are a no-op.
	if promoted := s.Release("nope"); promoted != nil {
		t.Fatalf("releasing an unknown run promoted %v", promoted)
	}

	// Draining everything promotes the rest and empties the scheduler.
	s.Release("run-1")
	s.Release("run-2")
	s.Release("run-3")
	if a, q, _ := s.Counts(); a != 0 || q != 0 {
		t.Fatalf("counts after drain = (%d, %d), want (0, 0)", a, q)
	}

	// Freed capacity admits again without shedding.
	if d, err := s.Admit("run-0"); err != nil || d != DecisionActive {
		t.Fatalf("re-admit after drain = (%s, %v), want active", d, err)
	}
}
