// Package strictjson decodes the repository's hand-written JSON
// documents (chaos plans, scenarios, mission specs, campaign specs)
// with one rule set: unknown fields are rejected, and so is anything
// but whitespace after the single top-level value. A typo in a fault
// schedule or a pasted second document must fail loudly, not silently
// change the mission.
package strictjson

import (
	"bytes"
	"encoding/json"
	"errors"
)

// ErrTrailingData reports bytes other than JSON whitespace after the
// document.
var ErrTrailingData = errors.New("trailing data after document")

// Decode unmarshals exactly one JSON value from data into v.
func Decode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return ErrTrailingData
	}
	return nil
}
