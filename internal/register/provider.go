package register

import (
	"fmt"
	"sort"
	"sync"
)

// Provider builds a register emulation from a configuration. Implementations
// register themselves under a short name ("adaptive", "abd", "ecreg",
// "safereg") from their package init, which lets shard sets and command-line
// tools build heterogeneous mixes of emulations by name without linking
// against every implementation package directly. A package may register more
// than one name: safereg registers "safereg" and "abd", Appendix E's register
// at any k and at k = 1.
type Provider func(Config) (Register, error)

var (
	providerMu sync.RWMutex
	providers  = make(map[string]Provider)
)

// RegisterProvider makes a register implementation available under name.
// It panics on duplicate registration, which would indicate two packages
// claiming the same algorithm name.
func RegisterProvider(name string, p Provider) {
	providerMu.Lock()
	defer providerMu.Unlock()
	if _, dup := providers[name]; dup {
		panic(fmt.Sprintf("register: duplicate provider %q", name))
	}
	providers[name] = p
}

// NewByName builds a register via the provider registered under name.
func NewByName(name string, cfg Config) (Register, error) {
	providerMu.RLock()
	p, ok := providers[name]
	providerMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("register: unknown provider %q (have %v)", name, ProviderNames())
	}
	return p(cfg)
}

// ProviderNames returns the registered provider names, sorted.
func ProviderNames() []string {
	providerMu.RLock()
	defer providerMu.RUnlock()
	names := make([]string, 0, len(providers))
	for name := range providers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
