package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestReplicaFlagsSet parses repeated -replica values the way the flag
// package hands them over, in order, splitting each at its first '='.
func TestReplicaFlagsSet(t *testing.T) {
	var got replicaFlags
	fs := flag.NewFlagSet("qdrouter", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Var(&got, "replica", "")
	err := fs.Parse([]string{
		"-replica", "0=http://localhost:8401",
		"-replica", "2=http://10.0.0.2:8403/base?x=y",
		"-replica", "0=http://localhost:8404",
		"-replica", "+1=http://h",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := replicaFlags{
		{Shard: 0, URL: "http://localhost:8401"},
		{Shard: 2, URL: "http://10.0.0.2:8403/base?x=y"},
		{Shard: 0, URL: "http://localhost:8404"},
		{Shard: 1, URL: "http://h"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
}

// TestReplicaFlagsSetRejects: a value without '=', or whose shard is empty,
// negative or not a decimal integer, is an error and adds no replica.
func TestReplicaFlagsSetRejects(t *testing.T) {
	for _, v := range []string{
		"",
		"http://localhost:8401",
		"=http://localhost:8401",
		"-1=http://localhost:8401",
		"one=http://localhost:8401",
		"1.5=http://localhost:8401",
		" 1=http://localhost:8401",
		"0x1=http://localhost:8401",
		"99999999999999999999=http://localhost:8401",
	} {
		var f replicaFlags
		if err := f.Set(v); err == nil {
			t.Errorf("Set(%q) accepted: %+v", v, f)
		} else if len(f) != 0 {
			t.Errorf("Set(%q) failed but kept %+v", v, f)
		}
	}
}

// TestReplicaFlagsString: String renders shard=url joined by commas, and
// each rendered part parses back to the replica it came from.
func TestReplicaFlagsString(t *testing.T) {
	var empty replicaFlags
	if s := empty.String(); s != "" {
		t.Fatalf("empty String() = %q", s)
	}
	f := replicaFlags{
		{Shard: 0, URL: "http://localhost:8401"},
		{Shard: 12, URL: "http://10.0.0.2:8403/base?x=y"},
	}
	s := f.String()
	if want := "0=http://localhost:8401,12=http://10.0.0.2:8403/base?x=y"; s != want {
		t.Fatalf("String() = %q, want %q", s, want)
	}
	var back replicaFlags
	for _, part := range strings.Split(s, ",") {
		if err := back.Set(part); err != nil {
			t.Fatalf("Set(%q): %v", part, err)
		}
	}
	if !reflect.DeepEqual(back, f) {
		t.Fatalf("round trip %+v, want %+v", back, f)
	}
}
