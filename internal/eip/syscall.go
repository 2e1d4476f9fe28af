package eip

import (
	"crypto/sha256"

	"repro/internal/libos"
	"repro/internal/sysdispatch"
)

// NewPipe implements baseline.Model — IPC is expensive (Table 1): a
// queue of AES-GCM sealed messages in untrusted memory. The pipe key
// would be agreed between the enclaves via local attestation; derive it
// from the creating enclave's identity.
func (g *Graphene) NewPipe(p *Proc) (r, w sysdispatch.File) {
	meas := enclaveOf(p).Measurement()
	return newEncPipe(sha256.Sum256(append(meas[:], byte(p.PID()))))
}

// Open implements baseline.Model — the shared file system is read-only
// (Table 1): a protected file, authenticated and unsealed whole.
func (g *Graphene) Open(_ *Proc, path string, _ int) (sysdispatch.File, error) {
	data, err := g.readProtected(path)
	if err != nil {
		return nil, err
	}
	return libos.OpenNodeFile(roFile{data}, libos.ORdOnly), nil
}

// Register implements baseline.Model: with n LibOS instances there is no
// safe shared writable state, so the calls that would change the
// namespace are refused. lseek, rename and fsync are not modeled and
// answer -ENOSYS from the table.
func (g *Graphene) Register(t *sysdispatch.Table) {
	readOnlyFS := func(sysdispatch.Kernel, *[5]uint64) sysdispatch.Result {
		return sysdispatch.Errno(libos.EACCES)
	}
	t.Register(libos.SysMkdir, readOnlyFS)
	t.Register(libos.SysUnlink, readOnlyFS)
}
