package main

import (
	"reflect"
	"testing"
)

func TestSelfTimeSubtractsTheNextRung(t *testing.T) {
	spans := []span{
		{"top", 1, "", 0, 100},
		{"mid", 1, "top", 100, 130},
		{"side", 1, "top", 130, 150},
		{"leaf", 1, "mid", 150, 155},
		{"top", 2, "", 200, 260},
		{"mid", 2, "top", 260, 270},
		{"top", 3, "", 300, 340}, // a request whose lower rungs were not replayed
	}
	got := selfTimes(spans)
	want := map[string][]int64{
		"top":  {40, 50, 50}, // 40-0, 100-30-20, 60-10
		"mid":  {10, 25},     // 10-0, 30-5
		"side": {20},
		"leaf": {5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := durations(spans, "top"); !reflect.DeepEqual(got, []int64{40, 60, 100}) {
		t.Errorf("durations(top) = %v", got)
	}
}
