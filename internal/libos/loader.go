package libos

import (
	"encoding/binary"
	"fmt"

	"repro/internal/fs"
	"repro/internal/isa"
	"repro/internal/mpx"
	"repro/internal/oelf"
)

// verifiedBin is one entry of the verified-binary cache: the parsed,
// signature-checked binary of one content version of one file.
type verifiedBin struct {
	version uint64
	bin     *oelf.Binary
}

// LoaderStats counts the loader's verified-binary cache outcomes.
type LoaderStats struct {
	// Hits are spawns served from the cache: no read, parse or verify.
	Hits uint64
	// Misses are spawns that read, parsed and signature-checked the
	// binary — one per verification.
	Misses uint64
}

// LoaderStats returns this instance's loader counters.
func (o *Occlum) LoaderStats() LoaderStats {
	o.binMu.Lock()
	defer o.binMu.Unlock()
	return o.binStats
}

// loadBinary returns the parsed, signature-checked OELF at path. Every
// content version of a file is read (decrypting through the encrypted
// FS), parsed and verified once, on its first spawn; later spawns of
// the same version reuse that result. The returned binary is shared and
// read-only — loadIntoDomain copies what it patches. Warm spawns (the
// best-of-3 cells of Figure 6a) therefore skip the FS read and the
// SHA-256; what still scales with binary size is loadIntoDomain's copy
// of the image into the domain.
//
// A cache entry is keyed by the file's fs.FileID and holds the version
// it was verified at. A hit needs the node's current key to match; a
// miss inserts only if the key read before the bytes equals the key
// read after them, so a write racing the read is never cached. Nodes
// that cannot name a version (devfs, procfs) are verified every time.
func (o *Occlum) loadBinary(path string) (*oelf.Binary, error) {
	f, err := o.vfs.Open(path, fs.ORdOnly)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	v, keyed := f.(fs.Versioned)
	var key fs.ContentKey
	if keyed {
		key, keyed = v.ContentKey()
	}
	if keyed {
		o.binMu.Lock()
		e, ok := o.bins[key.FileID]
		if ok && e.version == key.Version {
			o.binStats.Hits++
			o.binMu.Unlock()
			return e.bin, nil
		}
		o.binMu.Unlock()
	}

	raw := make([]byte, f.Size())
	n, err := f.ReadAt(raw, 0)
	if err != nil {
		return nil, err
	}
	bin, err := oelf.Unmarshal(raw[:n])
	o.binMu.Lock()
	o.binStats.Misses++
	o.binMu.Unlock()
	if err != nil {
		return nil, err
	}
	// Loader duty 1: only verifier-signed binaries may enter a domain.
	if err := o.cfg.VerifierKey.Verify(bin); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotSigned, err)
	}
	if keyed {
		if after, ok := v.ContentKey(); ok && after == key {
			o.binMu.Lock()
			o.bins[key.FileID] = verifiedBin{key.Version, bin}
			o.binMu.Unlock()
		}
	}
	return bin, nil
}

// trampolineLen is the injected syscall gate: cfi_label + trap.
const trampolineLen = isa.CFILabelLen + 1

// loadIntoDomain performs the program-loader work of §6: copy the image,
// rewrite cfi_labels, inject the trampoline, build the stack and auxv,
// and initialize the MPX bound registers.
//
// Layout: the code is placed at the *end* of the domain's code region so
// that the data region begins exactly codeSpan+guard after the code base,
// matching the layout the binary was linked (and verified) against. The
// trampoline lives at the start of the code region, far from user code.
func (o *Occlum) loadIntoDomain(d *Domain, bin *oelf.Binary, argv []string, p *Proc) error {
	img := &bin.Image
	codeSpan := img.CodeSpan()
	if codeSpan+trampolineLen+16 > d.CodeSize {
		return fmt.Errorf("%w: code span %d > domain code size %d", ErrTooBig, codeSpan, d.CodeSize)
	}
	if img.MinDataSize()+o.cfg.StackSize+4096 > d.DataSize {
		return fmt.Errorf("%w: data %d + stack > domain data size %d", ErrTooBig, img.MinDataSize(), d.DataSize)
	}
	if uint64(img.GuardSize) != 4096 {
		return fmt.Errorf("libos: unsupported guard size %d", img.GuardSize)
	}

	codeBase := d.CodeBase + d.CodeSize - codeSpan

	// Duty 2: rewrite the last 4 bytes of every cfi_label to this
	// domain's ID.
	code := append([]byte(nil), img.Code...)
	for _, off := range isa.FindCFIMagic(code) {
		binary.LittleEndian.PutUint32(code[off+4:], d.ID)
	}
	if err := o.enclave.WriteDirect(codeBase, code); err != nil {
		return err
	}

	// Duty 3: inject the trampoline — the only way out of the sandbox.
	if err := o.enclave.WriteDirect(d.CodeBase, EncodeTrampoline(d.ID)); err != nil {
		return err
	}

	// Data segment (BSS pages were zeroed when the domain was freed).
	if len(img.Data) > 0 {
		if err := o.enclave.WriteDirect(d.DataBase, img.Data); err != nil {
			return err
		}
	}

	// CPU state, stack and auxv.
	p.cpu.Reset()
	heapBase, heapEnd, err := SetupUserStack(o.enclave.Paged, p.cpu, d.CodeBase,
		d.DataBase, d.DataSize, o.cfg.StackSize, img.MinDataSize(), argv)
	if err != nil {
		return err
	}
	p.cpu.PC = codeBase + uint64(img.Entry)

	// Duty 4: initialize MPX bounds — BND0 confines memory accesses to
	// D; BND1 makes cfi_guard an equality test on this domain's label.
	p.cpu.Bnd.Set(isa.BND0, mpx.Bound{Lower: d.DataBase, Upper: d.DataBase + d.DataSize - 1})
	v := isa.CFILabelValue(d.ID)
	p.cpu.Bnd.Set(isa.BND1, mpx.Bound{Lower: v, Upper: v})

	p.heapBase, p.heapEnd, p.heapPtr = heapBase, heapEnd, heapBase
	p.tramp = d.CodeBase
	return nil
}

// isDomainLabel reports whether addr holds a cfi_label carrying the
// domain's ID — the check the LibOS performs on syscall return addresses
// and signal handlers.
func (o *Occlum) isDomainLabel(d *Domain, addr uint64) bool {
	b, err := o.enclave.ReadDirect(addr, isa.CFILabelLen)
	if err != nil {
		return false
	}
	for i, m := range isa.CFIMagic {
		if b[i] != m {
			return false
		}
	}
	return binary.LittleEndian.Uint32(b[4:]) == d.ID
}
