package openintel

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
)

// FuzzReadRecords holds the JSON-lines record reader to "error, never
// panic", and every record it hands out to a fixed point: encoded the way
// RecordWriter writes, it reads back as the same record.
func FuzzReadRecords(f *testing.F) {
	var seed bytes.Buffer
	w := NewRecordWriter(&seed)
	for _, r := range []Record{
		{Domain: 1, Time: clock.StudyStart.Add(time.Hour), NSSet: nsset.KeyOf([]netx.Addr{1, 2}), Status: nsset.StatusOK, RTT: 12 * time.Millisecond, Tries: 1},
		{Domain: 2, Time: clock.StudyStart.Add(2 * time.Hour), NSSet: nsset.KeyOf([]netx.Addr{1}), Status: nsset.StatusTimeout, Tries: 3},
	} {
		if err := w.Write(r); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"domain":2147483648}`))
	f.Add([]byte(`{"domain":1,"nsset":"\ud800","rtt_us":-1} {"tries":"3"}`))
	f.Add([]byte(`[{"domain":1}]`))
	f.Add([]byte(`{"domain":1,"unknown":{"a":[1,2,{"b":null}]}}` + "\n{"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var got []RecordJSON
		err := ReadRecords(bytes.NewReader(data), func(r RecordJSON) error {
			got = append(got, r)
			return nil
		})
		if err != nil && len(got) == 0 {
			return
		}
		var enc bytes.Buffer
		e := json.NewEncoder(&enc)
		for _, r := range got {
			if err := e.Encode(r); err != nil {
				t.Fatalf("encoding a record that decoded: %v", err)
			}
		}
		var back []RecordJSON
		if err := ReadRecords(&enc, func(r RecordJSON) error { back = append(back, r); return nil }); err != nil {
			t.Fatalf("re-reading encoded records: %v\n%s", err, enc.Bytes())
		}
		if !reflect.DeepEqual(got, back) {
			t.Fatalf("records read back different:\n got %+v\nwant %+v", back, got)
		}
	})
}
