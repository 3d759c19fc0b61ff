package cluster

import (
	"fmt"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/gen"
)

// Recipe is how one machine should be served as of the last look at its
// artifacts: the loaded machine, its engine kind and options, and a
// human-readable note on what was resolved. cmd/iselserver resolves one
// at boot and again on SIGHUP, and a replica one per machine at boot,
// both through the election below, so a blob picks the same engine on
// either.
type Recipe struct {
	M      *repro.Machine
	Kind   repro.Kind
	Opt    repro.Options
	Detail string
}

// ResolveRecipe decides how name should be served right now. With a
// <name>.isel blob in preloadDir, the blob's grammar fingerprint picks
// the engine: full grammar + dynamic-cost rules → hybrid (fixed
// operators from the blob, dynamic on-demand); full fixed-only grammar →
// static; fixed-subset fingerprint → the stripped machine static under
// the requested name. Without a blob the machine serves with the
// fallback kind.
func ResolveRecipe(name, preloadDir, fallback string, maxStates int) (Recipe, error) {
	if preloadDir != "" {
		path := filepath.Join(preloadDir, name+".isel")
		if _, err := os.Stat(path); err == nil {
			return ResolveBlobRecipe(name, path)
		} else if !os.IsNotExist(err) {
			return Recipe{}, err
		}
	}
	m, err := repro.LoadMachine(name)
	if err != nil {
		return Recipe{}, err
	}
	return Recipe{M: m, Kind: repro.Kind(fallback), Opt: repro.Options{MaxStates: maxStates}}, nil
}

// ResolveBlobRecipe elects the engine for name from the `.isel` artifact
// at path (which must exist), as ResolveRecipe describes.
func ResolveBlobRecipe(name, path string) (Recipe, error) {
	m, err := repro.LoadMachine(name)
	if err != nil {
		return Recipe{}, err
	}
	f, err := os.Open(path)
	if err != nil {
		return Recipe{}, err
	}
	hdr, err := gen.ReadHeader(f)
	f.Close()
	if err != nil {
		return Recipe{}, fmt.Errorf("%s: %w", path, err)
	}
	served, err := electMachine(m, hdr)
	if err != nil {
		return Recipe{}, fmt.Errorf("%s: %w", path, err)
	}
	kind, detail := repro.KindStatic, "static engine: full grammar, fully warm"
	switch {
	case served != m:
		detail = "static engine: fixed-cost subset, fully warm"
	case m.Grammar.HasAnyDynRules():
		kind, detail = repro.KindHybrid, "hybrid engine: fixed operators warm, dynamic on-demand"
	}
	return Recipe{M: served, Kind: kind, Opt: repro.Options{PreloadPath: path}, Detail: detail}, nil
}

// electMachine matches a blob's fingerprint against machine m's full
// grammar and its fixed-cost subset, and returns the machine the blob's
// tables belong to, named like m.
func electMachine(m *repro.Machine, hdr *gen.Header) (*repro.Machine, error) {
	if m.Grammar.Fingerprint() == hdr.Fingerprint {
		return m, nil
	}
	fixed, err := m.FixedMachine()
	if err != nil {
		return nil, err
	}
	if fixed.Grammar.Fingerprint() != hdr.Fingerprint {
		return nil, fmt.Errorf("tables were generated for grammar %q, which matches neither machine %s nor its fixed subset (regenerate with iselgen)",
			hdr.Grammar, m.Name)
	}
	fixed.Name = m.Name // serve under the requested name
	return fixed, nil
}
