package wire

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/value"
)

// This file is the one decoder of the fact-list documents, Instance and
// Delta, and of the constants inside them. An instance of tens of
// thousands of facts is the largest body cqad reads, and encoding/json
// decodes it by reflection with one UnmarshalJSON call per constant; this
// reader scans the fixed shapes
//
//	instance  {"facts": facts}
//	delta     {"added": facts, "removed": facts}
//	facts     null | [ fact, ... ]
//	fact      null | {"pred": null | string, "args": null | [ constant, ... ]}
//	constant  null | integer | string
//
// by hand. It accepts what encoding/json accepts into the same types
// with unknown fields disallowed, with two exceptions that make it
// stricter: a key must match its field's name exactly (encoding/json
// also takes a case-folded match, such as "Facts"), and no key may appear
// twice in one object (encoding/json keeps the last). An unknown key at
// any depth is an error, as it is for the request bodies around these
// documents. A string with an escape or a byte ≥ 0x80 is handed to
// encoding/json, so escapes, surrogate pairs and invalid UTF-8 decode
// exactly as encoding/json decodes them; every other string is its bytes.
// As in encoding/json, a null list decodes to a nil list and a null fact
// or pred to the zero value.

// UnmarshalJSON decodes an instance document.
func (in *Instance) UnmarshalJSON(b []byte) error {
	d := decoder{data: b}
	return d.document(func() error {
		return d.object("instance", instanceKeys, func(int) (err error) {
			in.Facts, err = d.facts()
			return err
		})
	})
}

// UnmarshalJSON decodes a delta document.
func (dl *Delta) UnmarshalJSON(b []byte) error {
	d := decoder{data: b}
	return d.document(func() error {
		return d.object("delta", deltaKeys, func(k int) (err error) {
			if k == 0 {
				dl.Added, err = d.facts()
			} else {
				dl.Removed, err = d.facts()
			}
			return err
		})
	})
}

// UnmarshalJSON decodes a JSON native back into a constant. Numbers must be
// integers (the domain U has no floats); anything but null, an integer, or
// a string is rejected.
func (v *Value) UnmarshalJSON(b []byte) error {
	d := decoder{data: b}
	d.space()
	c, err := d.constant()
	if err != nil {
		return err
	}
	if err := d.end(); err != nil {
		return err
	}
	v.V = c
	return nil
}

var (
	instanceKeys = []string{"facts"}
	deltaKeys    = []string{"added", "removed"}
	factKeys     = []string{"pred", "args"}
)

// slabLen is the number of constants one allocation of fact arguments
// holds.
const slabLen = 1024

// decoder reads one document from data, with pos the next byte.
type decoder struct {
	data []byte
	pos  int
	// pred is the last predicate name read, reused while the next facts
	// name the same relation.
	pred string
	// args collects one fact's arguments, which are then copied into slab,
	// from which every fact's Args is carved.
	args, slab []Value
}

func (d *decoder) errorf(format string, a ...any) error {
	return fmt.Errorf("wire: %s at offset %d", fmt.Sprintf(format, a...), d.pos)
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the next byte, 0 at the end of the data.
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// expect consumes c.
func (d *decoder) expect(c byte) error {
	if d.peek() != c {
		return d.errorf("expected %q", c)
	}
	d.pos++
	return nil
}

// end checks that only whitespace is left.
func (d *decoder) end() error {
	d.space()
	if d.pos != len(d.data) {
		return d.errorf("unexpected data after the document")
	}
	return nil
}

// literal consumes the keyword word, reporting whether it was there.
func (d *decoder) literal(word string) bool {
	if len(d.data)-d.pos >= len(word) && string(d.data[d.pos:d.pos+len(word)]) == word {
		d.pos += len(word)
		return true
	}
	return false
}

// document reads a whole document: null, which leaves the value as it was,
// or what value reads.
func (d *decoder) document(value func() error) error {
	d.space()
	if !d.literal("null") {
		if err := value(); err != nil {
			return err
		}
	}
	return d.end()
}

// object reads an object whose keys are names in keys, each at most once,
// and hands the value of each to field with its key's index. what names
// the object in errors.
func (d *decoder) object(what string, keys []string, field func(k int) error) error {
	if d.peek() != '{' {
		return d.errorf("%s must be an object", what)
	}
	d.pos++
	d.space()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	var seen uint
	for {
		d.space()
		if d.peek() != '"' {
			return d.errorf("expected an object key")
		}
		name, err := d.plain()
		if err == nil && name == nil {
			var s string
			s, err = d.str()
			name = []byte(s)
		}
		if err != nil {
			return err
		}
		k := -1
		for i, key := range keys {
			if string(name) == key {
				k = i
				break
			}
		}
		switch {
		case k < 0:
			return d.errorf("unknown key %q in %s", name, what)
		case seen&(1<<k) != 0:
			return d.errorf("duplicate key %q in %s", name, what)
		}
		seen |= 1 << k
		d.space()
		if err := d.expect(':'); err != nil {
			return err
		}
		d.space()
		if err := field(k); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.errorf("expected ',' or '}' in %s", what)
		}
	}
}

// array reads an array, calling elem at the start of each element.
func (d *decoder) array(what string, elem func() error) error {
	if d.peek() != '[' {
		return d.errorf("%s must be an array", what)
	}
	d.pos++
	d.space()
	if d.peek() == ']' {
		d.pos++
		return nil
	}
	for {
		d.space()
		if err := elem(); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.errorf("expected ',' or ']' in %s", what)
		}
	}
}

// facts reads a fact list: nil for null, and an empty, non-nil list for
// an empty array.
func (d *decoder) facts() ([]Fact, error) {
	if d.literal("null") {
		return nil, nil
	}
	out := []Fact{}
	err := d.array("facts", func() error {
		var f Fact
		if !d.literal("null") {
			if err := d.object("fact", factKeys, func(k int) error {
				if k == 0 {
					return d.predicate(&f)
				}
				return d.arguments(&f)
			}); err != nil {
				return err
			}
		}
		out = append(out, f)
		return nil
	})
	return out, err
}

// predicate reads a fact's pred member.
func (d *decoder) predicate(f *Fact) error {
	switch d.peek() {
	case 'n':
		if d.literal("null") {
			return nil
		}
	case '"':
		b, err := d.plain()
		switch {
		case err != nil:
			return err
		case b == nil:
			f.Pred, err = d.str()
			return err
		case string(b) != d.pred:
			d.pred = string(b)
		}
		f.Pred = d.pred
		return nil
	}
	return d.errorf("pred must be a string")
}

// arguments reads a fact's args member into a fresh piece of the slab.
func (d *decoder) arguments(f *Fact) error {
	if d.literal("null") {
		return nil
	}
	d.args = d.args[:0]
	if err := d.array("args", func() error {
		c, err := d.constant()
		d.args = append(d.args, Value{c})
		return err
	}); err != nil {
		return err
	}
	// A nil slab would turn an empty array into a nil list, which
	// encoding/json keeps apart from null.
	n := len(d.args)
	if d.slab == nil || cap(d.slab)-len(d.slab) < n {
		d.slab = make([]Value, 0, max(slabLen, n))
	}
	at := len(d.slab)
	d.slab = append(d.slab, d.args...)
	f.Args = d.slab[at:len(d.slab):len(d.slab)]
	return nil
}

// constant reads one constant: null, an integer, or a string.
func (d *decoder) constant() (value.V, error) {
	switch c := d.peek(); {
	case c == '"':
		s, err := d.str()
		return value.Str(s), err
	case c == '-' || '0' <= c && c <= '9':
		return d.integer()
	case d.literal("null"):
		return value.Null(), nil
	}
	return value.V{}, d.errorf("constant must be null, an integer, or a string")
}

// integer reads a JSON number, which must be an integer in the int64
// range.
func (d *decoder) integer() (value.V, error) {
	start := d.pos
	digits := func() int {
		n := 0
		for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
			d.pos++
			n++
		}
		return n
	}
	if d.peek() == '-' {
		d.pos++
	}
	lead := d.peek()
	if n := digits(); n == 0 || lead == '0' && n > 1 {
		return value.V{}, d.errorf("malformed number")
	}
	integral := true
	if d.peek() == '.' {
		d.pos++
		if digits() == 0 {
			return value.V{}, d.errorf("malformed number")
		}
		integral = false
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if digits() == 0 {
			return value.V{}, d.errorf("malformed number")
		}
		integral = false
	}
	lit := d.data[start:d.pos]
	i, err := strconv.ParseInt(string(lit), 10, 64)
	if !integral || err != nil {
		return value.V{}, fmt.Errorf("wire: constant %s is not a 64-bit integer", lit)
	}
	return value.Int(i), nil
}

// str reads a string literal.
func (d *decoder) str() (string, error) {
	b, err := d.plain()
	if err != nil || b != nil {
		return string(b), err
	}
	// An escape or a non-ASCII byte: find the closing quote and let
	// encoding/json decode the literal, validating its escapes.
	start := d.pos
	for i := start + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '\\':
			i++
		case c == '"':
			d.pos = i + 1
			var s string
			if err := json.Unmarshal(d.data[start:d.pos], &s); err != nil {
				d.pos = start
				return "", d.errorf("malformed string: %v", err)
			}
			return s, nil
		case c < 0x20:
			d.pos = i
			return "", d.errorf("control character in string")
		}
	}
	return "", d.errorf("unterminated string")
}

// plain reads a string literal with no escape and no byte ≥ 0x80 and
// returns its bytes, which are the string. It returns nil, leaving pos at
// the opening quote, for any other literal.
func (d *decoder) plain() ([]byte, error) {
	start := d.pos + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], nil
		case c == '\\' || c >= 0x80:
			return nil, nil
		case c < 0x20:
			d.pos = i
			return nil, d.errorf("control character in string")
		}
	}
	d.pos = len(d.data)
	return nil, d.errorf("unterminated string")
}
