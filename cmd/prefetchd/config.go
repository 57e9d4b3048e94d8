package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// Duration is a time.Duration that unmarshals from either a JSON
// string ("250ms", "2s") or a bare number of nanoseconds, so config
// files can write timeouts the way humans do.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// MarshalJSON implements json.Marshaler (round-trips as a string).
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// BackendConfig describes one named backend of a key space. Type
// selects the adapter: "http" (prefetcher/fetch/httpfetch) or "fs"
// (prefetcher/fetch/fsfetch).
type BackendConfig struct {
	Name string `json:"name"`
	Type string `json:"type"`

	// http backends.
	URL          string `json:"url,omitempty"`
	Path         string `json:"path,omitempty"`
	BatchPath    string `json:"batch_path,omitempty"`
	MaxBodyBytes int64  `json:"max_body_bytes,omitempty"`
	MaxParallel  int    `json:"max_parallel,omitempty"`

	// fs backends.
	Root         string `json:"root,omitempty"`
	Pattern      string `json:"pattern,omitempty"`
	MaxFileBytes int64  `json:"max_file_bytes,omitempty"`

	// Fabric knobs, mapped onto fetch.Backend. Bandwidth is the link's
	// b. Each fetch goes to the backend of least (in-flight + 1)/b: set,
	// a link with a tenth of its peer's b is sent a fetch while idle
	// only once its peer has ten in flight; left 0, the b measured online
	// is the peak per-fetch goodput, which round trips dominate for small
	// objects, so set it where the split matters.
	Bandwidth          float64  `json:"bandwidth,omitempty"`
	DemandTimeout      Duration `json:"demand_timeout,omitempty"`
	SpeculativeTimeout Duration `json:"speculative_timeout,omitempty"`
}

// HedgingConfig maps onto fetch.Hedging.
type HedgingConfig struct {
	MaxAttempts int      `json:"max_attempts,omitempty"`
	Backoff     Duration `json:"backoff,omitempty"`
}

// SpaceConfig describes one key space: a named engine with its own
// backends, cache and policy. Requests address a space as
// /obj/{space}/{key}; the space named "default" also serves the bare
// /obj/{key} form.
type SpaceConfig struct {
	Name     string          `json:"name"`
	Backends []BackendConfig `json:"backends"`

	// The cache is the slab-backed byte store (prefetcher/bytestore):
	// payloads live in pointer-free segments the GC never scans, bounded
	// by CacheBytes (0 = 64 MiB), probation's tail out first;
	// CacheCapacity bounds the entry count (0 = CacheBytes/64), half of
	// it protected (segmented LRU), behind a frequency filter that lets
	// a demand miss displace a resident only if its key is read more
	// often; SegmentBytes sizes the arena segments (0 = 1 MiB).
	CacheCapacity int `json:"cache_capacity,omitempty"`
	CacheBytes    int `json:"cache_bytes,omitempty"`
	SegmentBytes  int `json:"segment_bytes,omitempty"`

	// Engine knobs; zero values keep the engine defaults. Policy is
	// adaptive-a (the default) or none. Bandwidth is the b the engine's
	// reported ρ̂′ and threshold are read against; admission divides
	// by each backend link's own b, configured or measured.
	Policy    string  `json:"policy,omitempty"`
	Shards    int     `json:"shards,omitempty"`
	Bandwidth float64 `json:"bandwidth,omitempty"`

	// Hedging is the fabric's one knob; routing (shortest expected
	// delay) has none.
	Hedging *HedgingConfig `json:"hedging,omitempty"`
}

// Config is prefetchd's whole configuration: the listen address and
// the key spaces it serves.
type Config struct {
	Listen          string        `json:"listen,omitempty"`
	ShutdownTimeout Duration      `json:"shutdown_timeout,omitempty"`
	Spaces          []SpaceConfig `json:"spaces"`
}

// DefaultSpace is the space name the bare /obj/{key} form resolves to.
const DefaultSpace = "default"

// knob name sets, validated up front so a typo in a config file is a
// boot error, not a silently-default engine.
var (
	validBackendTypes = map[string]bool{"http": true, "fs": true}
	validPolicies     = map[string]bool{"": true, "adaptive-a": true, "none": true}
)

// ParseConfig decodes and validates a JSON config. It is the fuzz
// surface: any input either yields a valid *Config or an error —
// never a panic, and never a Config that Validate would reject.
func ParseConfig(data []byte) (*Config, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("config: trailing data after the JSON object")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// Validate checks the configuration's internal consistency. Adapter
// construction (httpfetch.New, fsfetch.New) revalidates its own
// fields; Validate catches what must hold across the file.
func (c *Config) Validate() error {
	if len(c.Spaces) == 0 {
		return fmt.Errorf("config: at least one space is required")
	}
	if c.ShutdownTimeout < 0 {
		return fmt.Errorf("config: shutdown_timeout must be >= 0")
	}
	names := make(map[string]bool, len(c.Spaces))
	for i := range c.Spaces {
		s := &c.Spaces[i]
		if s.Name == "" {
			return fmt.Errorf("config: space %d has no name", i)
		}
		if strings.ContainsAny(s.Name, "/ ") {
			return fmt.Errorf("config: space name %q may not contain '/' or spaces", s.Name)
		}
		if names[s.Name] {
			return fmt.Errorf("config: duplicate space name %q", s.Name)
		}
		names[s.Name] = true
		if err := s.validate(); err != nil {
			return fmt.Errorf("config: space %q: %w", s.Name, err)
		}
	}
	return nil
}

func (s *SpaceConfig) validate() error {
	if len(s.Backends) == 0 {
		return fmt.Errorf("at least one backend is required")
	}
	bnames := make(map[string]bool, len(s.Backends))
	for i := range s.Backends {
		b := &s.Backends[i]
		if b.Name == "" {
			return fmt.Errorf("backend %d has no name", i)
		}
		if bnames[b.Name] {
			return fmt.Errorf("duplicate backend name %q", b.Name)
		}
		bnames[b.Name] = true
		if !validBackendTypes[b.Type] {
			return fmt.Errorf("backend %q: unknown type %q (want http or fs)", b.Name, b.Type)
		}
		switch b.Type {
		case "http":
			if b.URL == "" {
				return fmt.Errorf("backend %q: http backends need a url", b.Name)
			}
			if b.Root != "" || b.Pattern != "" || b.MaxFileBytes != 0 {
				return fmt.Errorf("backend %q: fs fields set on an http backend", b.Name)
			}
		case "fs":
			if b.Root == "" {
				return fmt.Errorf("backend %q: fs backends need a root", b.Name)
			}
			if b.URL != "" || b.Path != "" || b.BatchPath != "" || b.MaxBodyBytes != 0 || b.MaxParallel != 0 {
				return fmt.Errorf("backend %q: http fields set on an fs backend", b.Name)
			}
		}
		if b.Bandwidth < 0 {
			return fmt.Errorf("backend %q: bandwidth must be >= 0", b.Name)
		}
		if b.DemandTimeout < 0 || b.SpeculativeTimeout < 0 {
			return fmt.Errorf("backend %q: timeouts must be >= 0", b.Name)
		}
	}
	if !validPolicies[s.Policy] {
		return fmt.Errorf("unknown policy %q (want adaptive-a or none)", s.Policy)
	}
	if s.CacheBytes < 0 || s.SegmentBytes < 0 {
		return fmt.Errorf("cache_bytes and segment_bytes must be >= 0")
	}
	if s.Policy != "none" && s.Bandwidth <= 0 {
		// The engine reports its threshold at ρ̂′ = (1−ĥ′)·λ̂·ŝ̄/b
		// against this b, and refuses an adaptive policy without one.
		return fmt.Errorf("policy %q adapts to load and needs a positive bandwidth", s.Policy)
	}
	if s.CacheCapacity < 0 || s.Shards < 0 || s.Bandwidth < 0 {
		return fmt.Errorf("engine knobs must be >= 0")
	}
	if h := s.Hedging; h != nil {
		if h.MaxAttempts < 0 || h.Backoff < 0 {
			return fmt.Errorf("hedging fields must be >= 0")
		}
	}
	return nil
}
