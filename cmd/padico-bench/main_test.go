package main

import (
	"bytes"
	"strings"
	"testing"

	"padico/internal/bench"
)

func TestUnknownScenarioListsValidNames(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "fig3,nope"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown scenario exited 0")
	}
	if stdout.Len() != 0 {
		t.Errorf("ran scenarios before rejecting the list:\n%s", stdout.String())
	}
	for _, s := range bench.Scenarios {
		if !strings.Contains(stderr.String(), s.Name) {
			t.Errorf("error does not name valid scenario %q: %s", s.Name, stderr.String())
		}
	}
}

func TestListShowsEveryScenario(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr.String())
	}
	for _, s := range bench.Scenarios {
		if !strings.Contains(stdout.String(), s.Name+" ") || !strings.Contains(stdout.String(), s.Desc) {
			t.Errorf("-list misses %s", s.Name)
		}
	}
}
