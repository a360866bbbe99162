package main

import (
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{10, 0},    // the median leaves 5 beyond it
		{20, 0.5},  // exactly 10 beyond the median
		{99, 0.5},  // p90 leaves 9
		{100, 0.9}, // p90 leaves 10
		{999, 0.9}, // p99 leaves 9
		{1000, 0.99},
		{9999, 0.99},
		{10000, 0.999},
		{1000000, 0.999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var d dist
	for i := 100; i >= 1; i-- { // unsorted on purpose
		d.add(float64(i))
	}
	for _, tc := range []struct{ p, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {0.999, 100}, {0, 1}, {1, 100},
	} {
		if got := d.q(tc.p); got != tc.want {
			t.Errorf("q(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	var empty dist
	if got := empty.q(0.5); got != 0 {
		t.Errorf("empty q = %g, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and a parenthesis must not shift fields.
	line := "4242 (dcs) print (d)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 75 0 0 20 0 9 0 12345 1000000 500 18446744073709551615\n"
	got, err := parseStatCPU([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := 3.25; got != want {
		t.Errorf("cpu = %g s, want %g (325 ticks)", got, want)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Error("short stat line parsed")
	}
	if _, err := parseStatCPU([]byte("no command field")); err == nil {
		t.Error("stat line without a command parsed")
	}
}

func TestParseKV(t *testing.T) {
	io := "rchar: 5000\nwchar: 123456\nsyscr: 10\nsyscw: 42\nread_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n"
	kv := parseKV([]byte(io))
	if kv["wchar"] != 123456 || kv["syscw"] != 42 || kv["write_bytes"] != 4096 {
		t.Errorf("io parsed as %v", kv)
	}
	status := "Name:\tdcsprintd\nVmPeak:\t 1300000 kB\nVmHWM:\t  524288 kB\nThreads:\t9\n"
	kv = parseKV([]byte(status))
	if kv["VmHWM"] != 524288 || kv["Threads"] != 9 {
		t.Errorf("status parsed as %v", kv)
	}
	if _, ok := kv["Name"]; ok {
		t.Error("non-numeric value parsed")
	}
}
