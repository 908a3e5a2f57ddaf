package study

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadConfig holds the config parser — what a -config file goes
// through — to "error, never panic", and an
// accepted config to a fixed point: written out and read back it is the
// same config, and writes the same bytes again.
func FuzzReadConfig(f *testing.F) {
	var quick bytes.Buffer
	if err := WriteConfig(&quick, QuickConfig()); err != nil {
		f.Fatal(err)
	}
	f.Add(quick.Bytes())
	f.Add([]byte(`{"World": {"Domains": 777}}`))
	f.Add([]byte(`{"Wrold": {}}`))
	f.Add([]byte(`{"FromDay": 10, "ToDay": 5}`))
	f.Add([]byte(`{"World": {"MisconfiguredShare": 1e400}}`))
	f.Add([]byte(`{"Attacks": {"DNSShare": -0}, "Parallelism": 3}`))
	f.Add([]byte(`{"WindowMarginBefore": 9223372036854775807}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ReadConfig(bytes.NewReader(data), DefaultConfig())
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := WriteConfig(&once, cfg); err != nil {
			t.Fatalf("writing a config that parsed: %v", err)
		}
		again, err := ReadConfig(bytes.NewReader(once.Bytes()), DefaultConfig())
		if err != nil {
			t.Fatalf("re-reading a written config: %v\n%s", err, once.Bytes())
		}
		var twice bytes.Buffer
		if err := WriteConfig(&twice, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("a written config does not re-encode to itself:\n%s\nthen\n%s", once.Bytes(), twice.Bytes())
		}
		if !reflect.DeepEqual(cfg, again) {
			t.Fatalf("a written config reads back different:\n got %+v\nwant %+v", again, cfg)
		}
	})
}
