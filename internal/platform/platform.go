// Package platform assembles the eleven evaluated systems of §VI-A
// behind one interface: mmap (the MMF baseline), optane-P/M,
// flatflash-P/M, nvdimm-C, the four HAMS variants (hams-LP/LE/TP/TE)
// and the 512 GB-NVDIMM oracle — plus the §III-C bypass strategies
// (NVDIMM / ULL / ULL-buff) used by Fig. 7b.
package platform

import (
	"fmt"

	"hams/internal/core"
	"hams/internal/cpu"
	"hams/internal/dram"
	"hams/internal/energy"
	"hams/internal/mem"
	"hams/internal/osmodel"
	"hams/internal/pcie"
	"hams/internal/qos"
	"hams/internal/sim"
	"hams/internal/ssd"
)

// Platform is a memory system under test.
type Platform interface {
	cpu.MemSystem
	Name() string
	// Warm pre-populates the platform's caches with a hot address
	// range, untimed — the harness's stand-in for the steady state a
	// full-length run would reach (see EXPERIMENTS.md).
	Warm(base, size uint64)
	// EnergyInputs folds the platform's device activity into the
	// energy model's inputs (CPU fields are filled by the harness).
	EnergyInputs() energy.Inputs
}

// Options tunes platform construction.
type Options struct {
	// HAMS edits the controller configuration of the five HAMS
	// variants (hams-LP/LE/TP/TE/SW). It is applied to the variant's
	// core.DefaultConfig, so nil keeps the paper's Table II setup, and
	// it must be a pure edit: New and MappingPage may each apply it.
	// Other platforms ignore it.
	HAMS func(*core.Config)
	// MmapSSD selects the storage behind the MMF baseline:
	// "ull" (default), "nvme", "sata" (Fig. 6).
	MmapSSD string
}

// HAMSConfig returns the controller configuration New builds a HAMS
// platform from: the variant's core.DefaultConfig with o.HAMS applied.
// hams-SW runs hams-LE's datapath (Extend mode, Loose topology). ok is
// false for every other platform.
func HAMSConfig(name string, o Options) (cfg core.Config, ok bool) {
	switch name {
	case "hams-LP":
		cfg = core.DefaultConfig(core.Persist, core.Loose)
	case "hams-LE", "hams-SW":
		cfg = core.DefaultConfig(core.Extend, core.Loose)
	case "hams-TP":
		cfg = core.DefaultConfig(core.Persist, core.Tight)
	case "hams-TE":
		cfg = core.DefaultConfig(core.Extend, core.Tight)
	default:
		return core.Config{}, false
	}
	if o.HAMS != nil {
		o.HAMS(&cfg)
	}
	return cfg, true
}

// Names lists the Fig. 16 platform order.
func Names() []string {
	return []string{
		"mmap", "flatflash-P", "flatflash-M", "hams-LP", "hams-LE",
		"nvdimm-C", "optane-P", "optane-M", "hams-TP", "hams-TE", "oracle",
	}
}

// AllNames lists every name New accepts: the Fig. 16 platforms plus
// the §III-C bypass strategies and the software HAMS prototype.
// Validators (the job API, CLIs) check against this list so an
// unknown platform is rejected before any simulation state is built.
func AllNames() []string {
	return append(Names(), "hams-SW", "ull-direct", "ull-buff")
}

// Known reports whether New accepts the platform name.
func Known(name string) bool {
	for _, n := range AllNames() {
		if n == name {
			return true
		}
	}
	return false
}

// MappingPage returns the MMU translation granularity a platform maps
// memory with: the HAMS variants map whole MoS pages (Fig. 20a varies
// the size); 0 means the harness's 4 KiB system default. Every driver
// of cpu.Runner (live experiments and trace replay alike) must apply
// the same granularity or identical streams would translate
// differently.
func MappingPage(name string, o Options) uint64 {
	if cfg, ok := HAMSConfig(name, o); ok {
		return cfg.PageBytes
	}
	return 0
}

// New constructs a platform by its paper name.
func New(name string, o Options) (Platform, error) {
	if cfg, ok := HAMSConfig(name, o); ok {
		ctl, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		if name == "hams-SW" {
			return &hamsSWPlatform{ctl: ctl, costs: osmodel.DefaultCosts()}, nil
		}
		return &hamsPlatform{name: name, ctl: ctl}, nil
	}
	switch name {
	case "mmap":
		return newMmap(o)
	case "oracle":
		return newOracle(), nil
	case "optane-P":
		return newOptane(false), nil
	case "optane-M":
		return newOptane(true), nil
	case "flatflash-P":
		return newFlatFlash(false), nil
	case "flatflash-M":
		return newFlatFlash(true), nil
	case "nvdimm-C":
		return newNVDIMMC(), nil
	case "ull-direct":
		return newULLDirect(false), nil
	case "ull-buff":
		return newULLDirect(true), nil
	default:
		return nil, fmt.Errorf("platform: unknown platform %q", name)
	}
}

// ---------------------------------------------------------------------
// mmap: the MMF software baseline.

type mmapPlatform struct {
	mmf *osmodel.MMF
}

func newMmap(o Options) (*mmapPlatform, error) {
	cfg := osmodel.DefaultConfig()
	switch o.MmapSSD {
	case "", "ull":
		cfg.SSD = ssd.ULLFlash()
		cfg.Link = pcie.Gen3x4()
	case "nvme":
		cfg.SSD = ssd.NVMeSSD()
		cfg.Link = pcie.Gen3x4()
	case "sata":
		cfg.SSD = ssd.SATASSD()
		cfg.Link = pcie.SATA6G()
	default:
		return nil, fmt.Errorf("platform: unknown mmap SSD %q", o.MmapSSD)
	}
	return &mmapPlatform{mmf: osmodel.New(cfg)}, nil
}

func (p *mmapPlatform) Name() string { return "mmap" }

func (p *mmapPlatform) Access(t sim.Time, a mem.Access) (cpu.MemResult, error) {
	r := p.mmf.Access(t, a)
	return cpu.MemResult{Done: r.Done, OS: r.OS, Mem: r.Mem, SSD: r.SSD}, nil
}

// Warm pre-populates the OS page cache.
func (p *mmapPlatform) Warm(base, size uint64) { p.mmf.Warm(base, size) }

func (p *mmapPlatform) EnergyInputs() energy.Inputs {
	return energy.Inputs{
		DRAM:       p.mmf.DRAM().Stats(),
		Flash:      p.mmf.Device().FlashStats(),
		HasIntDRAM: p.mmf.Device().HasBuffer(),
	}
}

// MMF exposes the underlying model (Fig. 7a uses its breakdown).
func (p *mmapPlatform) MMF() *osmodel.MMF { return p.mmf }

// ---------------------------------------------------------------------
// oracle: a 512 GB NVDIMM serving everything at DRAM speed.

type oraclePlatform struct {
	d *dram.DDR4
}

func newOracle() *oraclePlatform {
	cfg := dram.DefaultConfig()
	cfg.Functional = false
	cfg.Capacity = 512 * mem.GiB
	return &oraclePlatform{d: dram.New(cfg)}
}

func (p *oraclePlatform) Name() string { return "oracle" }

func (p *oraclePlatform) Access(t sim.Time, a mem.Access) (cpu.MemResult, error) {
	done := p.d.Access(t, a.Addr, a.Size, a.Op)
	return cpu.MemResult{Done: done, Mem: done - t}, nil
}

// Warm is a no-op: the oracle NVDIMM holds everything already.
func (p *oraclePlatform) Warm(base, size uint64) {}

func (p *oraclePlatform) EnergyInputs() energy.Inputs {
	return energy.Inputs{DRAM: p.d.Stats()}
}

// ---------------------------------------------------------------------
// hams-*: the four HAMS variants wrap the core controller that New
// builds from HAMSConfig.

type hamsPlatform struct {
	name string
	ctl  *core.Controller
}

func (p *hamsPlatform) Name() string { return p.name }

func (p *hamsPlatform) Access(t sim.Time, a mem.Access) (cpu.MemResult, error) {
	r, err := p.ctl.Access(t, a)
	if err != nil {
		return cpu.MemResult{}, err
	}
	return cpu.MemResult{
		Done:     r.Done,
		Mem:      r.NVDIMM,
		DMA:      r.DMA,
		SSD:      r.SSD + r.Wait,
		Throttle: r.Throttle,
	}, nil
}

// Warm installs the range into the MoS tag array as clean/valid.
func (p *hamsPlatform) Warm(base, size uint64) { p.ctl.Warm(base, size) }

// WarmClass warms on behalf of a QoS class: installs stay inside the
// class's way partition (the replay engine uses it so a partitioned
// tenant's steady state lands where the live run would build it).
func (p *hamsPlatform) WarmClass(base, size uint64, cls qos.ClassID) {
	p.ctl.WarmClass(base, size, cls)
}

func (p *hamsPlatform) EnergyInputs() energy.Inputs {
	return energy.Inputs{
		DRAM:       p.ctl.NVDIMM().Stats(),
		Flash:      p.ctl.Device().FlashStats(),
		HasIntDRAM: p.ctl.Device().HasBuffer(),
	}
}

// Controller exposes the HAMS core (Fig. 18 reads its stats).
func (p *hamsPlatform) Controller() *core.Controller { return p.ctl }

// ---------------------------------------------------------------------
// hams-SW: the software-assisted alternative the paper dismisses in
// §VII — the same NVDIMM-cache-over-ULL-Flash datapath, but every
// cache miss is a page fault the OS must service (context switches and
// fault handling on the critical path). Its controller comes from the
// same HAMSConfig as hams-LE's, knobs included, so the gap between the
// two measures the value of hardware automation alone.

type hamsSWPlatform struct {
	ctl   *core.Controller
	costs osmodel.Costs
}

func (p *hamsSWPlatform) Name() string { return "hams-SW" }

func (p *hamsSWPlatform) Access(t sim.Time, a mem.Access) (cpu.MemResult, error) {
	r, err := p.ctl.Access(t, a)
	if err != nil {
		return cpu.MemResult{}, err
	}
	res := cpu.MemResult{Done: r.Done, Mem: r.NVDIMM, DMA: r.DMA, SSD: r.SSD + r.Wait, Throttle: r.Throttle}
	if !r.Hit {
		// The OS services the fault: trap + switches around the block.
		sw := p.costs.FaultEntry + 2*p.costs.ContextSwitch
		res.Done += sw
		res.OS += sw
	}
	return res, nil
}

// Warm installs the hot range into the MoS tag array.
func (p *hamsSWPlatform) Warm(base, size uint64) { p.ctl.Warm(base, size) }

// WarmClass warms on behalf of a QoS class (see hamsPlatform).
func (p *hamsSWPlatform) WarmClass(base, size uint64, cls qos.ClassID) {
	p.ctl.WarmClass(base, size, cls)
}

func (p *hamsSWPlatform) EnergyInputs() energy.Inputs {
	return energy.Inputs{
		DRAM:       p.ctl.NVDIMM().Stats(),
		Flash:      p.ctl.Device().FlashStats(),
		HasIntDRAM: p.ctl.Device().HasBuffer(),
	}
}

// Controller exposes the core (shared with hamsPlatform for stats).
func (p *hamsSWPlatform) Controller() *core.Controller { return p.ctl }
