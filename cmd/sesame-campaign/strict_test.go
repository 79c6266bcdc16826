package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sesame/internal/chaos"
	"sesame/internal/missionhost"
	"sesame/internal/scenario"
)

// TestStrictJSONTrailingData drives every strict-JSON entry point —
// chaos plans, scenarios, mission specs and campaign spec files — with
// a valid document followed by each kind of tail. Whitespace is the
// only tail any of them may accept; each keeps its own error prefix.
func TestStrictJSONTrailingData(t *testing.T) {
	scenarioDoc, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "urban_canyon.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	callers := []struct {
		name, doc, prefix string
		parse             func(t *testing.T, data []byte) error
	}{
		{"chaos", `{"seed":1}`, "chaos: parsing plan: ", func(_ *testing.T, data []byte) error {
			_, err := chaos.LoadPlan(data)
			return err
		}},
		{"scenario", strings.TrimSpace(string(scenarioDoc)), "scenario: parsing: ", func(_ *testing.T, data []byte) error {
			_, err := scenario.Load(data)
			return err
		}},
		{"missionhost", `{"id":"a"}`, "missionhost: spec: ", func(_ *testing.T, data []byte) error {
			_, err := missionhost.ParseSpec(data)
			return err
		}},
		{"campaign", `{"name":"x","seed_count":1}`, "", func(t *testing.T, data []byte) error {
			path := filepath.Join(dir, "spec.json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := loadSpec(options{spec: path})
			return err
		}},
	}
	tails := []struct {
		name, tail string
		ok         bool
	}{
		{"none", "", true},
		{"whitespace", " \n\t\r\n", true},
		{"closing brace", " }", false},
		{"closing bracket", "]", false},
		{"second object", " {}", false},
		{"garbage", "\nx", false},
	}
	for _, c := range callers {
		for _, tl := range tails {
			err := c.parse(t, []byte(c.doc+tl.tail))
			switch {
			case tl.ok && err != nil:
				t.Errorf("%s + %s tail: rejected: %v", c.name, tl.name, err)
			case !tl.ok && err == nil:
				t.Errorf("%s + %s tail: accepted %q", c.name, tl.name, tl.tail)
			case !tl.ok && !strings.Contains(err.Error(), "trailing data"):
				t.Errorf("%s + %s tail: error %q does not report trailing data", c.name, tl.name, err)
			case !tl.ok && !strings.HasPrefix(err.Error(), c.prefix):
				t.Errorf("%s + %s tail: error %q lost its %q prefix", c.name, tl.name, err, c.prefix)
			}
		}
	}
}
