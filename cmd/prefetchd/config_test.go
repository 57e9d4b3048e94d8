package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/prefetcher/bytestore"
)

const sampleConfig = `{
  "listen": ":0",
  "shutdown_timeout": "5s",
  "spaces": [
    {
      "name": "default",
      "backends": [
        {"name": "origin", "type": "http", "url": "http://origin:9000",
         "batch_path": "/batch", "demand_timeout": "2s", "speculative_timeout": "500ms"},
        {"name": "disk", "type": "fs", "root": "/"}
      ],
      "cache_capacity": 1024,
      "policy": "adaptive-a",
      "bandwidth": 1000000,
      "hedging": {"max_attempts": 2, "backoff": "10ms"}
    },
    {
      "name": "cold",
      "backends": [{"name": "o", "type": "http", "url": "http://cold:9000"}],
      "policy": "none"
    }
  ]
}`

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig([]byte(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Spaces) != 2 || cfg.Listen != ":0" {
		t.Fatalf("cfg = %+v", cfg)
	}
	d := cfg.Spaces[0]
	if d.Backends[0].DemandTimeout != Duration(2*time.Second) {
		t.Fatalf("demand_timeout = %v", d.Backends[0].DemandTimeout)
	}
	if d.Backends[0].SpeculativeTimeout != Duration(500*time.Millisecond) {
		t.Fatalf("speculative_timeout = %v", d.Backends[0].SpeculativeTimeout)
	}
	if d.Hedging == nil || d.Hedging.MaxAttempts != 2 {
		t.Fatalf("hedging = %+v", d.Hedging)
	}
	// Duration round-trips through its string form.
	out, err := json.Marshal(cfg.Spaces[0].Backends[0])
	if err != nil || !strings.Contains(string(out), `"2s"`) {
		t.Fatalf("marshal: %s, %v", out, err)
	}
}

func TestParseConfigRejects(t *testing.T) {
	cases := map[string]string{
		"empty":                   `{}`,
		"no spaces":               `{"spaces": []}`,
		"not json":                `nope`,
		"trailing":                `{"spaces":[{"name":"a","backends":[{"name":"o","type":"fs","root":"/"}]}]} extra`,
		"unknown field":           `{"spaces":[{"name":"a","backendz":[]}]}`,
		"unnamed space":           `{"spaces":[{"backends":[{"name":"o","type":"fs","root":"/"}]}]}`,
		"slash in space":          `{"spaces":[{"name":"a/b","backends":[{"name":"o","type":"fs","root":"/"}]}]}`,
		"dup space":               `{"spaces":[{"name":"a","backends":[{"name":"o","type":"fs","root":"/"}]},{"name":"a","backends":[{"name":"o","type":"fs","root":"/"}]}]}`,
		"no backends":             `{"spaces":[{"name":"a"}]}`,
		"unnamed backend":         `{"spaces":[{"name":"a","backends":[{"type":"fs","root":"/"}]}]}`,
		"dup backend":             `{"spaces":[{"name":"a","backends":[{"name":"o","type":"fs","root":"/"},{"name":"o","type":"fs","root":"/"}]}]}`,
		"bad type":                `{"spaces":[{"name":"a","backends":[{"name":"o","type":"redis"}]}]}`,
		"http sans url":           `{"spaces":[{"name":"a","backends":[{"name":"o","type":"http"}]}]}`,
		"fs sans root":            `{"spaces":[{"name":"a","backends":[{"name":"o","type":"fs"}]}]}`,
		"mixed fields":            `{"spaces":[{"name":"a","backends":[{"name":"o","type":"http","url":"http://x","root":"/"}]}]}`,
		"neg timeout":             `{"spaces":[{"name":"a","backends":[{"name":"o","type":"fs","root":"/","demand_timeout":-1}]}]}`,
		"bad duration":            `{"spaces":[{"name":"a","backends":[{"name":"o","type":"fs","root":"/","demand_timeout":"fast"}]}]}`,
		"bad policy":              `{"spaces":[{"name":"a","policy":"yolo","backends":[{"name":"o","type":"fs","root":"/"}]}]}`,
		"adaptive sans bandwidth": `{"spaces":[{"name":"a","policy":"adaptive-a","backends":[{"name":"o","type":"fs","root":"/"}]}]}`,
		"neg cache bytes":         `{"spaces":[{"name":"a","cache_bytes":-1,"backends":[{"name":"o","type":"fs","root":"/"}]}]}`,
		"neg segment bytes":       `{"spaces":[{"name":"a","cache_bytes":1024,"segment_bytes":-1,"backends":[{"name":"o","type":"fs","root":"/"}]}]}`,
	}
	for name, data := range cases {
		if _, err := ParseConfig([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestParseConfigRejectsPredictorKnob: the access model is not a knob
// (ROADMAP item 6(d)), and a config that still names one — the old
// default spelled out included — is refused as an unknown field, not
// read past: "predictor": "none" used to be accepted and ignored.
func TestParseConfigRejectsPredictorKnob(t *testing.T) {
	const space = `{"spaces":[{"name":"a",%s"policy":"none","backends":[{"name":"o","type":"fs","root":"/"}]}]}`
	if _, err := ParseConfig([]byte(fmt.Sprintf(space, ""))); err != nil {
		t.Fatalf("the config without the knob: %v", err)
	}
	for _, knob := range []string{`"predictor":"markov",`, `"predictor":"none",`, `"predictor_arg":3,`} {
		_, err := ParseConfig([]byte(fmt.Sprintf(space, knob)))
		if err == nil || !strings.Contains(err.Error(), `unknown field "predictor`) {
			t.Errorf("%s: err = %v, want an unknown-field error", knob, err)
		}
	}
}

// TestParseConfigRejectsRetiredKnobs: the idle gate went when
// internal/vlink's TestIdleGateSweep found no gated cell winning a row,
// a hedge now always launches at the primary's p95, a backend's routing
// weight is its bandwidth, routing is shortest expected delay and the
// circuit breaker is gone, since the virtual-time gates found neither
// weighted nor latency routing beating it nor the breaker winning a row
// beside it, and a space's policy is adaptive-a or none, since
// TestRuleSweep found no other rule beating adaptive-a at any load. A
// config that still names the gate's watermark, a hedge delay, a
// backend weight, a routing mode, the breaker, a policy's argument or
// an engine knob nothing set (workers, queue_depth, max_prefetch) is
// refused as an unknown field, and one naming a retired policy as an
// unknown policy; the same space without them boots.
func TestParseConfigRejectsRetiredKnobs(t *testing.T) {
	const space = `{"spaces":[{"name":"a",%s"hedging":{%s"max_attempts":2},"bandwidth":100,"backends":[{"name":"o","type":"fs",%s"root":"/"}]}]}`
	for _, policy := range []string{`"policy":"none",`, `"policy":"adaptive-a",`, ""} {
		if _, err := ParseConfig([]byte(fmt.Sprintf(space, policy, "", `"bandwidth":100,`))); err != nil {
			t.Fatalf("the config without the keys, %s: %v", policy, err)
		}
	}
	for _, tc := range []struct{ name, space, hedging, backend, want string }{
		{"idle_watermark", `"idle_watermark":0.8,`, "", "", `unknown field "idle_watermark"`},
		{"delay", "", `"delay":"5ms",`, "", `unknown field "delay"`},
		{"p95_multiple", "", `"p95_multiple":0.5,`, "", `unknown field "p95_multiple"`},
		{"breaker", `"breaker":true,`, "", "", `unknown field "breaker"`},
		{"breaker.threshold", `"breaker":{"threshold":5},`, "", "", `unknown field "breaker"`},
		{"routing latency", `"routing":"latency",`, "", "", `unknown field "routing"`},
		{"routing weighted", `"routing":"weighted",`, "", "", `unknown field "routing"`},
		{"weight", "", "", `"weight":2,`, `unknown field "weight"`},
		{"policy static", `"policy":"static",`, "", "", `unknown policy "static"`},
		{"policy topk", `"policy":"topk",`, "", "", `unknown policy "topk"`},
		{"policy adaptive-b", `"policy":"adaptive-b",`, "", "", `unknown policy "adaptive-b"`},
		{"policy greedy", `"policy":"greedy",`, "", "", `unknown policy "greedy"`},
		{"policy_arg", `"policy":"none","policy_arg":0.5,`, "", "", `unknown field "policy_arg"`},
		{"queue_depth", `"queue_depth":64,`, "", "", `unknown field "queue_depth"`},
		{"max_prefetch", `"max_prefetch":4,`, "", "", `unknown field "max_prefetch"`},
		{"workers", `"workers":4,`, "", "", `unknown field "workers"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseConfig([]byte(fmt.Sprintf(space, tc.space, tc.hedging, tc.backend)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestParseConfigRejectsCachePolicyKnob: every space caches in the one
// slab store, in segmented-LRU order, so a config that still
// names a replacement policy — the old default spelled out included — is
// refused as an unknown field, not read past. The two rules that went
// with the boxed modes went too: segment_bytes no longer needs
// cache_bytes beside it.
func TestParseConfigRejectsCachePolicyKnob(t *testing.T) {
	const space = `{"spaces":[{"name":"a",%s"policy":"none","backends":[{"name":"o","type":"fs","root":"/"}]}]}`
	for _, ok := range []string{``, `"segment_bytes":1024,`, `"cache_capacity":64,"cache_bytes":65536,"segment_bytes":4096,`} {
		if _, err := ParseConfig([]byte(fmt.Sprintf(space, ok))); err != nil {
			t.Errorf("%s: %v", ok, err)
		}
	}
	for _, knob := range []string{`"cache_policy":"lru",`, `"cache_policy":"slru","cache_bytes":65536,`, `"cache_policy":"arc",`} {
		_, err := ParseConfig([]byte(fmt.Sprintf(space, knob)))
		if err == nil || !strings.Contains(err.Error(), `unknown field "cache_policy"`) {
			t.Errorf("%s: err = %v, want an unknown-field error", knob, err)
		}
	}
}

// FuzzParseConfig asserts the parser's contract under arbitrary
// input: no panics, and any accepted config re-validates and
// re-parses from its own marshalled form.
func FuzzParseConfig(f *testing.F) {
	f.Add([]byte(sampleConfig))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"spaces":[{"name":"a","backends":[{"name":"o","type":"fs","root":"/"}]}]}`))
	f.Add([]byte(`{"spaces":[{"name":"a","backends":[{"name":"o","type":"http","url":"http://x","demand_timeout":"1h"}]}]}`))
	f.Add([]byte(`{"spaces":[{"name":"a","cache_bytes":65536,"segment_bytes":4096,"cache_capacity":64,"backends":[{"name":"o","type":"fs","root":"/"}]}]}`))
	f.Add([]byte(`{"spaces":[{"name":"a","cache_bytes":65536,"cache_policy":"slru","backends":[{"name":"o","type":"fs","root":"/"}]}]}`))
	f.Add([]byte(`{"spaces":[{"name":"a","predictor":"markov","policy":"none","backends":[{"name":"o","type":"fs","root":"/"}]}]}`))
	f.Add([]byte(`{"spaces":[{"name":"a","predictor":"ppm","predictor_arg":3,"policy":"none","backends":[{"name":"o","type":"fs","root":"/"}]}]}`))
	f.Add([]byte(`nope`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConfig(data)
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted config fails Validate: %v", err)
		}
		out, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config does not marshal: %v", err)
		}
		if _, err := ParseConfig(out); err != nil {
			t.Fatalf("accepted config does not round-trip: %v\n%s", err, out)
		}
	})
}

// TestFlagsRejectRetiredKnobs: -cache-policy went with cache_policy,
// -predictor with predictor, -policy-arg with the policies that read it,
// -workers with workers and -breaker with the breaker; each on the
// command line stops the boot instead of being read past, and the flags
// that remain build the one space on the one store.
func TestFlagsRejectRetiredKnobs(t *testing.T) {
	newSet := func() *flag.FlagSet {
		fs := flag.NewFlagSet("prefetchd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		return fs
	}
	for _, args := range [][]string{{"-cache-policy", "lru"}, {"-cache-policy=slru", "-cache-bytes", "1024"}, {"-predictor", "markov"}, {"-idle-watermark", "0.8"}, {"-breaker-threshold", "5"}, {"-breaker"}, {"-policy-arg", "0.5"}, {"-workers", "4"}} {
		_, err := configFromArgs(newSet(), append(args, "-origin", "http://origin:9000"))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+strings.SplitN(args[0], "=", 2)[0]) {
			t.Errorf("%v: err = %v, want flag provided but not defined", args, err)
		}
	}
	cfg, err := configFromArgs(newSet(), []string{"-origin", "http://origin:9000", "-cache", "512", "-segment-bytes", "65536", "-demand-timeout", "2s"})
	if err != nil {
		t.Fatal(err)
	}
	sp := cfg.Spaces[0]
	if cfg.Listen != ":8080" || sp.Policy != "adaptive-a" || sp.Backends[0].DemandTimeout != Duration(2*time.Second) {
		t.Fatalf("the flag-built config = %+v", cfg)
	}
	if got := sp.store(); got != (bytestore.Config{CapacityBytes: defaultCacheBytes, MaxEntries: 512, SegmentBytes: 65536}) {
		t.Fatalf("the flag-built space mounts %+v", got)
	}
}

func TestLoadConfigFlags(t *testing.T) {
	base := flagConfig{
		listen: ":0", cacheCap: 128,
		policy: "adaptive-a", bandwidth: 1e6,
		drainTO: 5 * time.Second,
	}
	if _, err := loadConfig("", base); err == nil {
		t.Fatal("no backend flags accepted")
	}
	f := base
	f.origin = "http://origin:9000"
	f.originBatch = "/batch"
	f.hedgeMax = 2
	f.demandTO = 2 * time.Second
	cfg, err := loadConfig("", f)
	if err != nil {
		t.Fatal(err)
	}
	sp := cfg.Spaces[0]
	if len(sp.Backends) != 1 || sp.Backends[0].Type != "http" || sp.Backends[0].BatchPath != "/batch" {
		t.Fatalf("backends = %+v", sp.Backends)
	}
	if sp.Backends[0].DemandTimeout != Duration(2*time.Second) {
		t.Fatalf("demand timeout = %v", sp.Backends[0].DemandTimeout)
	}
	if sp.Hedging == nil || sp.Hedging.MaxAttempts != 2 {
		t.Fatalf("hedging = %+v", sp.Hedging)
	}
	f2 := base
	f2.fsRoot = t.TempDir()
	cfg2, err := loadConfig("", f2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.Spaces[0].Backends[0].Type != "fs" {
		t.Fatalf("backends = %+v", cfg2.Spaces[0].Backends)
	}
}
