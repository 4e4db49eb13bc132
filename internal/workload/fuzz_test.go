package workload

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzScanSWF streams arbitrary bytes through ScanSWF. It must never panic,
// must deliver the same header and jobs as ReadSWF's materialized trace,
// and must agree with oracleSWF, a plain strings/strconv parser of the same
// format: the same jobs up to the first bad line, and an error naming that
// line exactly when the oracle finds one. Seed corpus in testdata/fuzz.
//
//	go test -run '^$' -fuzz '^FuzzScanSWF$' -fuzztime 30s ./internal/workload
func FuzzScanSWF(f *testing.F) {
	f.Add([]byte(sampleSWF))
	f.Add([]byte("1 0 0 10 2 -1 -1 -1 -1 -1 1 7 -1 -1 1 1 -1 -1 extra notes\r\n\n"))
	f.Add([]byte("; a: b : c\n;no colon\n  \t\n2 0 0\n"))
	f.Add([]byte("+1 -0 0 10 2 1e3 -1 -1 -1 -1 1 7 -1 -1 1 1 -1 9223372036854775807\n"))
	f.Add([]byte("1 0 0 10 2 NaN -1 -1 -1 -1 1 7 -1 -1 1 1 -1 99999999999999999999\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // longer than ScanSWF's line limit
		}
		var hdr Header
		var jobs []Job
		err := ScanSWF(strings.NewReader(string(data)),
			func(k, v string) { hdr = append(hdr, struct{ Key, Value string }{k, v}) },
			func(j Job) error { jobs = append(jobs, j); return nil })

		readJobs, readHdr, readErr := ReadSWF(strings.NewReader(string(data)))
		if (err == nil) != (readErr == nil) {
			t.Fatalf("ScanSWF error %v, ReadSWF error %v", err, readErr)
		}
		if err == nil && (!sameJobs(jobs, readJobs) || !reflect.DeepEqual(hdr, readHdr)) {
			t.Fatalf("streamed %+v %+v, materialized %+v %+v", hdr, jobs, readHdr, readJobs)
		}

		wantHdr, wantJobs, badLine := oracleSWF(string(data))
		if !sameJobs(jobs, wantJobs) || !reflect.DeepEqual(hdr, wantHdr) {
			t.Fatalf("streamed %+v %+v, oracle %+v %+v", hdr, jobs, wantHdr, wantJobs)
		}
		line := fmt.Sprintf("workload: line %d", badLine)
		switch {
		case badLine == 0 && err != nil:
			t.Fatalf("oracle accepts the input, ScanSWF: %v", err)
		case badLine != 0 && err == nil:
			t.Fatalf("ScanSWF accepts line %d, which the oracle refuses", badLine)
		case err != nil && !strings.HasPrefix(err.Error(), line+":") && !strings.HasPrefix(err.Error(), line+" "):
			t.Fatalf("error %q does not name line %d", err, badLine)
		}
	})
}

// oracleSWF parses SWF with strings and strconv: the header and the jobs
// before the first bad record, and that record's line number (0 if none).
func oracleSWF(data string) (Header, []Job, int) {
	var hdr Header
	var jobs []Job
	const space = " \t\r\n\v\f"
	isSpace := func(r rune) bool { return strings.ContainsRune(space, r) }
	for i, line := range strings.Split(data, "\n") {
		line = strings.Trim(line, space)
		if line == "" {
			continue
		}
		if line[0] == ';' {
			if k, v, ok := strings.Cut(strings.TrimSpace(line[1:]), ":"); ok {
				hdr = append(hdr, struct{ Key, Value string }{strings.TrimSpace(k), strings.TrimSpace(v)})
			}
			continue
		}
		fields := strings.FieldsFunc(line, isSpace)
		if len(fields) < 18 {
			return hdr, jobs, i + 1
		}
		var vals [18]int64
		var avg float64
		for k, field := range fields[:18] {
			var err error
			if k == 5 {
				avg, err = strconv.ParseFloat(field, 64)
			} else {
				vals[k], err = strconv.ParseInt(field, 10, 64)
			}
			if err != nil {
				return hdr, jobs, i + 1
			}
		}
		jobs = append(jobs, Job{
			ID: int(vals[0]), Submit: vals[1], Wait: vals[2], Run: vals[3],
			Procs: int(vals[4]), AvgCPU: avg, Memory: vals[6],
			ReqProcs: int(vals[7]), ReqTime: vals[8], ReqMemory: vals[9],
			Status: int(vals[10]), User: int(vals[11]), Group: int(vals[12]),
			Executable: int(vals[13]), Queue: int(vals[14]), Partition: int(vals[15]),
			Preceding: int(vals[16]), ThinkTime: vals[17],
		})
	}
	return hdr, jobs, 0
}

// sameJobs compares job lists field by field, taking a NaN average CPU as
// equal to another NaN.
func sameJobs(a, b []Job) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.AvgCPU != y.AvgCPU && !(x.AvgCPU != x.AvgCPU && y.AvgCPU != y.AvgCPU) {
			return false
		}
		x.AvgCPU, y.AvgCPU = 0, 0
		if x != y {
			return false
		}
	}
	return true
}
