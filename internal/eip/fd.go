package eip

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"sync"
)

// seal encrypts-and-authenticates data with AES-GCM under a key derived
// from key32, binding the associated data. This is the cryptography every
// EIP boundary crossing pays.
func seal(key32 [32]byte, ad, data []byte) []byte {
	block, err := aes.NewCipher(key32[:16])
	if err != nil {
		panic(err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	nonce := make([]byte, gcm.NonceSize())
	sum := sha256.Sum256(append(append([]byte{}, ad...), data...))
	copy(nonce, sum[:])
	out := make([]byte, 0, gcm.NonceSize()+len(data)+gcm.Overhead())
	out = append(out, nonce...)
	return gcm.Seal(out, nonce, data, ad)
}

// open verifies and decrypts a sealed buffer.
func open(key32 [32]byte, ad, sealed []byte) ([]byte, error) {
	block, err := aes.NewCipher(key32[:16])
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	if len(sealed) < gcm.NonceSize() {
		return nil, errors.New("eip: sealed buffer too short")
	}
	return gcm.Open(nil, sealed[:gcm.NonceSize()], sealed[gcm.NonceSize():], ad)
}

// Errors of the EIP descriptions. lseek is not modeled (the table
// answers ENOSYS), so Seek, which sysdispatch.File requires, always
// fails — the shared lseek handler would turn that into ESPIPE.
var (
	errReadOnly = errors.New("eip: read-only filesystem")
	errNoSeek   = errors.New("eip: descriptor is not seekable")
)

// roFile is an open read-only protected file, fully unsealed at open (the
// per-open decryption cost of protected files). Descriptors sharing it
// through dup2 or spawn inheritance share its offset, as POSIX open
// file descriptions do; it holds no host resource, so references need
// no counting.
type roFile struct {
	mu   sync.Mutex
	data []byte
	off  int
}

func (d *roFile) Read(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.off >= len(d.data) {
		return 0, io.EOF
	}
	n := copy(p, d.data[d.off:])
	d.off += n
	return n, nil
}
func (d *roFile) Write([]byte) (int, error)      { return 0, errReadOnly }
func (d *roFile) Seek(int64, int) (int64, error) { return 0, errNoSeek }
func (d *roFile) Ref()                           {}
func (d *roFile) Unref()                         {}

// encPipe is the EIP pipe: a queue of AES-GCM sealed messages standing in
// untrusted memory between two enclaves. Every write seals; every read
// unseals — the paper's expensive cross-enclave IPC.
type encPipe struct {
	mu      sync.Mutex
	cond    *sync.Cond
	key     [32]byte
	seq     uint64
	rseq    uint64
	queue   [][]byte // sealed chunks in "untrusted memory"
	residue []byte   // unsealed bytes not yet consumed
	rClosed bool
	wClosed bool
	readers int
	writers int
}

func newEncPipe(key [32]byte) *encPipe {
	ep := &encPipe{key: key, readers: 1, writers: 1}
	ep.cond = sync.NewCond(&ep.mu)
	return ep
}

// encPipeEnd is one end of an encPipe. Descriptors duplicated or
// inherited from one end share the value; Ref and Unref count them.
type encPipeEnd struct {
	p       *encPipe
	writing bool
}

func (e *encPipeEnd) Read(p []byte) (int, error) {
	if e.writing {
		return 0, errors.New("eip: write end")
	}
	ep := e.p
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for len(ep.residue) == 0 && len(ep.queue) == 0 && !ep.wClosed {
		ep.cond.Wait()
	}
	if len(ep.residue) == 0 && len(ep.queue) > 0 {
		sealed := ep.queue[0]
		ep.queue = ep.queue[1:]
		var ad [8]byte
		binary.LittleEndian.PutUint64(ad[:], ep.rseq)
		ep.rseq++
		pt, err := open(ep.key, ad[:], sealed)
		if err != nil {
			return 0, errors.New("eip: pipe message corrupted in untrusted memory")
		}
		ep.residue = pt
	}
	if len(ep.residue) == 0 {
		return 0, io.EOF
	}
	n := copy(p, ep.residue)
	ep.residue = ep.residue[n:]
	ep.cond.Broadcast()
	return n, nil
}

const encPipeMaxQueue = 64

func (e *encPipeEnd) Write(p []byte) (int, error) {
	if !e.writing {
		return 0, errors.New("eip: read end")
	}
	ep := e.p
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.rClosed {
		return 0, errors.New("eip: broken pipe")
	}
	for len(ep.queue) >= encPipeMaxQueue && !ep.rClosed {
		ep.cond.Wait()
	}
	var ad [8]byte
	binary.LittleEndian.PutUint64(ad[:], ep.seq)
	ep.seq++
	ep.queue = append(ep.queue, seal(ep.key, ad[:], p))
	ep.cond.Broadcast()
	return len(p), nil
}

func (e *encPipeEnd) Seek(int64, int) (int64, error) { return 0, errNoSeek }

// Ref counts one more descriptor on this end (dup2, spawn inheritance).
func (e *encPipeEnd) Ref() {
	ep := e.p
	ep.mu.Lock()
	if e.writing {
		ep.writers++
	} else {
		ep.readers++
	}
	ep.mu.Unlock()
}

// Unref drops a descriptor; the end closes when its last one goes.
func (e *encPipeEnd) Unref() {
	ep := e.p
	ep.mu.Lock()
	if e.writing {
		ep.writers--
		if ep.writers <= 0 {
			ep.wClosed = true
		}
	} else {
		ep.readers--
		if ep.readers <= 0 {
			ep.rClosed = true
		}
	}
	ep.cond.Broadcast()
	ep.mu.Unlock()
}
