package strictjson

import (
	"errors"
	"strings"
	"testing"
)

func TestDecode(t *testing.T) {
	type doc struct {
		A int `json:"a"`
	}
	cases := []struct {
		in       string
		trailing bool
		fail     bool
	}{
		{in: `{"a":1}`},
		{in: " \t\r\n{\"a\":1} \n\t\r "},
		{in: `{"a":1} }`, trailing: true},
		{in: `{"a":1}]`, trailing: true},
		{in: `{"a":1} {"a":2}`, trailing: true},
		{in: `{"a":1} x`, trailing: true},
		{in: "{\"a\":1}\u00a0", trailing: true}, // JSON whitespace only
		{in: `{"a":1,"b":2}`, fail: true},
		{in: `{"a":`, fail: true},
		{in: ``, fail: true},
	}
	for _, c := range cases {
		var d doc
		err := Decode([]byte(c.in), &d)
		switch {
		case c.trailing:
			if !errors.Is(err, ErrTrailingData) {
				t.Errorf("%q: err = %v, want ErrTrailingData", c.in, err)
			}
		case c.fail:
			if err == nil || errors.Is(err, ErrTrailingData) {
				t.Errorf("%q: err = %v, want a decode error", c.in, err)
			}
		default:
			if err != nil || d.A != 1 {
				t.Errorf("%q: got %+v, %v", c.in, d, err)
			}
		}
	}
	var d doc
	if err := Decode([]byte(`{"a":1,"zz":2}`), &d); err == nil || !strings.Contains(err.Error(), "zz") {
		t.Errorf("unknown field error %v does not name the field", err)
	}
}
