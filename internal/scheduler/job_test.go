package scheduler

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// referenceUnmarshalDuration is Duration.UnmarshalJSON as it was before
// strings were read in place: every input through a generic decode.
func referenceUnmarshalDuration(d *Duration, b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		dd, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("scheduler: bad duration %q: %w", x, err)
		}
		*d = Duration(dd)
	case float64:
		*d = Duration(time.Duration(x * float64(time.Second)))
	default:
		return fmt.Errorf("scheduler: duration must be a string or seconds, got %T", v)
	}
	return nil
}

// FuzzDurationJSON checks that the decoder reads every input as the
// reference does: the same value, or the same error.
func FuzzDurationJSON(f *testing.F) {
	for _, seed := range []string{`"30m"`, `1800`, `true`, `null`, `"\u0033\u0030m"`, `"bad"`, `-5`, `1e400`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var got, want Duration
		gotErr, wantErr := got.UnmarshalJSON(b), referenceUnmarshalDuration(&want, b)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
			t.Fatalf("%q: decoded %v (err %v), reference %v (err %v)", b, time.Duration(got), gotErr, time.Duration(want), wantErr)
		}
	})
}
