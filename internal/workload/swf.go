// Package workload implements the paper's last case study (section VII):
// bird's-eye visualization of parallel production workloads. It provides a
// parser and writer for the Standard Workload Format (SWF) used by the
// Parallel Workloads Archive, an FCFS placement simulator that assigns jobs
// to concrete nodes (SWF traces record how many processors a job used, not
// which ones), a deterministic synthetic generator reproducing the shape of
// the LLNL Thunder day shown in Figure 13, and the conversion to a Jedule
// schedule with per-user highlighting.
package workload

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Job is one SWF record. Times are in seconds; -1 encodes "unknown" for
// most fields, as in the archive.
type Job struct {
	ID         int
	Submit     int64 // seconds since trace start
	Wait       int64 // queueing delay
	Run        int64 // execution duration
	Procs      int   // allocated processors
	AvgCPU     float64
	Memory     int64
	ReqProcs   int
	ReqTime    int64
	ReqMemory  int64
	Status     int
	User       int
	Group      int
	Executable int
	Queue      int
	Partition  int
	Preceding  int
	ThinkTime  int64
}

// Start returns the execution start time (submit + wait).
func (j Job) Start() int64 { return j.Submit + j.Wait }

// End returns the completion time.
func (j Job) End() int64 { return j.Start() + j.Run }

// Header carries the commented key/value metadata of an SWF file.
type Header []struct{ Key, Value string }

// Get returns the first header value for key, or "".
func (h Header) Get(key string) string {
	for _, kv := range h {
		if kv.Key == key {
			return kv.Value
		}
	}
	return ""
}

// ScanSWF parses an SWF stream without materializing it: ';'-prefixed
// header comments followed by whitespace-separated 18-field job records.
// Every header key/value is passed to header (which may be nil) and every
// record to job, in file order; a non-nil error from job stops the scan and
// is returned as-is. Records with fewer than 18 fields are rejected with
// the offending line number; blank lines are skipped.
//
// The record path performs O(1) allocations per job: fields are split and
// parsed directly from the scanner's byte buffer, and the only per-record
// heap traffic is the rare fallback for a fractional avg-CPU field. A
// million-job archive trace therefore streams through in one pass with
// O(1) memory beyond what the job callback retains.
func ScanSWF(r io.Reader, header func(key, value string), job func(Job) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	var fields [18][]byte
	for sc.Scan() {
		lineNo++
		line := trimSpaceBytes(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if line[0] == ';' {
			if header != nil {
				body := strings.TrimSpace(string(line[1:]))
				if k, v, ok := strings.Cut(body, ":"); ok {
					header(strings.TrimSpace(k), strings.TrimSpace(v))
				}
			}
			continue
		}
		n := splitFields(line, fields[:])
		if n < 18 {
			return fmt.Errorf("workload: line %d: %d fields, want 18", lineNo, n)
		}
		var vals [18]int64
		var avg float64
		for i := 0; i < 18; i++ {
			v, ok := parseIntBytes(fields[i])
			if i == 5 {
				// Field 6 (avg cpu) may be fractional: fall back to a
				// float parse only when the integer fast path fails.
				if ok {
					avg = float64(v)
					continue
				}
				f, err := strconv.ParseFloat(string(fields[i]), 64)
				if err != nil {
					return fmt.Errorf("workload: line %d field %d: %v", lineNo, i+1, err)
				}
				avg = f
				continue
			}
			if !ok {
				var err error
				if v, err = strconv.ParseInt(string(fields[i]), 10, 64); err != nil {
					return fmt.Errorf("workload: line %d field %d: %v", lineNo, i+1, err)
				}
			}
			vals[i] = v
		}
		err := job(Job{
			ID: int(vals[0]), Submit: vals[1], Wait: vals[2], Run: vals[3],
			Procs: int(vals[4]), AvgCPU: avg, Memory: vals[6],
			ReqProcs: int(vals[7]), ReqTime: vals[8], ReqMemory: vals[9],
			Status: int(vals[10]), User: int(vals[11]), Group: int(vals[12]),
			Executable: int(vals[13]), Queue: int(vals[14]), Partition: int(vals[15]),
			Preceding: int(vals[16]), ThinkTime: vals[17],
		})
		if err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	return nil
}

// trimSpaceBytes trims ASCII whitespace without converting to a string.
func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && asciiSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && asciiSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

// splitFields splits line on runs of whitespace into dst, returning the
// number of fields found (capped at len(dst); extra fields are ignored, as
// some archive traces append annotations).
func splitFields(line []byte, dst [][]byte) int {
	n := 0
	i := 0
	for i < len(line) && n < len(dst) {
		for i < len(line) && asciiSpace(line[i]) {
			i++
		}
		if i == len(line) {
			break
		}
		start := i
		for i < len(line) && !asciiSpace(line[i]) {
			i++
		}
		dst[n] = line[start:i]
		n++
	}
	return n
}

// parseIntBytes parses a decimal integer from raw bytes, reporting ok=false
// on any syntax problem or near overflow (the caller falls back to strconv,
// which parses the largest values and words the canonical error).
func parseIntBytes(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '-' || b[0] == '+' {
		neg = b[0] == '-'
		i++
		if i == len(b) {
			return 0, false
		}
	}
	var v int64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, false
		}
		if v > (1<<62)/10 {
			return 0, false // near overflow; let strconv report it
		}
		v = v*10 + int64(d)
	}
	if neg {
		v = -v
	}
	return v, true
}

// ReadSWF parses an SWF stream into memory. It is ScanSWF plus
// materialization, for callers that need the whole trace at once.
func ReadSWF(r io.Reader) ([]Job, Header, error) {
	var jobs []Job
	var hdr Header
	err := ScanSWF(r,
		func(k, v string) { hdr = append(hdr, struct{ Key, Value string }{k, v}) },
		func(j Job) error { jobs = append(jobs, j); return nil })
	if err != nil {
		return nil, nil, err
	}
	return jobs, hdr, nil
}

// ReadSWFWindow streams an SWF trace and keeps only the jobs whose
// execution finished inside [from, to) — FilterWindow fused into the scan,
// so selecting one day out of a million-job trace needs memory proportional
// to the window, not the trace.
func ReadSWFWindow(r io.Reader, from, to int64) ([]Job, Header, error) {
	var jobs []Job
	var hdr Header
	err := ScanSWF(r,
		func(k, v string) { hdr = append(hdr, struct{ Key, Value string }{k, v}) },
		func(j Job) error {
			if end := j.End(); end >= from && end < to {
				jobs = append(jobs, j)
			}
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	return jobs, hdr, nil
}

// WriteSWF emits jobs in SWF format with the given header comments.
func WriteSWF(w io.Writer, jobs []Job, hdr Header) error {
	bw := bufio.NewWriter(w)
	for _, kv := range hdr {
		if _, err := fmt.Fprintf(bw, "; %s: %s\n", kv.Key, kv.Value); err != nil {
			return err
		}
	}
	for _, j := range jobs {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d %d %g %d %d %d %d %d %d %d %d %d %d %d %d\n",
			j.ID, j.Submit, j.Wait, j.Run, j.Procs, j.AvgCPU, j.Memory,
			j.ReqProcs, j.ReqTime, j.ReqMemory, j.Status, j.User, j.Group,
			j.Executable, j.Queue, j.Partition, j.Preceding, j.ThinkTime); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSWFFile parses an SWF file from disk (for example a real archive
// trace such as LLNL-Thunder-2007-0 when available).
func ReadSWFFile(path string) ([]Job, Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadSWF(f)
}

// FilterWindow keeps jobs whose execution finished inside [from, to) — the
// "all jobs that finished on 02/02" selection of the case study.
func FilterWindow(jobs []Job, from, to int64) []Job {
	var out []Job
	for _, j := range jobs {
		if end := j.End(); end >= from && end < to {
			out = append(out, j)
		}
	}
	return out
}
