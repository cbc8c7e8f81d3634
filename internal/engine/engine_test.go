package engine

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/session"
)

func TestLookup(t *testing.T) {
	for _, name := range Names() {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%q) not found", name)
		}
	}
	if s, ok := Lookup(""); !ok || s.Name != "search" {
		t.Errorf("Lookup(\"\") = %+v, %v; want the search default", s, ok)
	}
	if _, ok := Lookup("warp"); ok {
		t.Errorf("Lookup(warp) found")
	}
}

func TestOptions(t *testing.T) {
	opts, err := Options("direct", 3)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Engine != session.EngineDirect {
		t.Errorf("engine = %v, want direct", opts.Engine)
	}
	base, err := Options("direct", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(opts, base) {
		t.Errorf("worker count changed the options: %+v vs %+v", opts, base)
	}

	_, err = Options("warp", 1)
	var unknown *UnknownError
	if !errors.As(err, &unknown) || unknown.Name != "warp" {
		t.Fatalf("Options(warp) err = %v, want *UnknownError", err)
	}
	if got := unknown.Error(); got != `unknown engine "warp": want search, program, cautious, direct, or auto` {
		t.Errorf("error text: %s", got)
	}
}

func TestCapabilities(t *testing.T) {
	repairs := map[string]bool{"search": true, "program": true, "cautious": false, "direct": false, "auto": false}
	for name, want := range repairs {
		s, _ := Lookup(name)
		if s.Repairs != want {
			t.Errorf("%s: Repairs = %v, want %v", name, s.Repairs, want)
		}
	}
	if s, _ := Lookup("search"); !s.Classic {
		t.Errorf("search should support classic semantics")
	}
	if s, _ := Lookup("direct"); s.Classic {
		t.Errorf("direct must not claim classic semantics")
	}
}
