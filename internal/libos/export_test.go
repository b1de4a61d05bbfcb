package libos

// ScrubbedPages waits for the SIP to exit and reports how many domain
// pages its teardown zeroed.
func (p *Proc) ScrubbedPages() int {
	<-p.done
	return p.scrubbed
}

// DomainRegions returns the code and data regions of the SIP's domain.
func (p *Proc) DomainRegions() (codeBase, codeSize, dataBase, dataSize uint64) {
	return p.dom.CodeBase, p.dom.CodeSize, p.dom.DataBase, p.dom.DataSize
}

// ReadEnclave reads enclave memory with no permission checks.
func (o *Occlum) ReadEnclave(addr uint64, n int) ([]byte, error) {
	return o.enclave.ReadDirect(addr, n)
}
