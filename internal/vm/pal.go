package vm

import (
	"fmt"

	"atom/internal/alpha"
)

// pal dispatches a CALL_PAL service. It returns done=true when the
// machine halted (PC must not advance further).
func (m *Machine) pal(fn uint32) (done bool, err error) {
	m.Syscalls++
	a0 := m.Reg[alpha.A0]
	a1 := m.Reg[alpha.A1]
	a2 := m.Reg[alpha.A2]
	switch fn {
	case alpha.PalHalt:
		m.halted = true
		m.exitCode = int(a0)
		m.flushFiles()
		return true, nil

	case alpha.PalWrite:
		n, err := m.sysWrite(int(a0), uint64(a1), a2)
		if err != nil {
			return false, err
		}
		m.Reg[alpha.V0] = n

	case alpha.PalRead:
		n, err := m.sysRead(int(a0), uint64(a1), a2)
		if err != nil {
			return false, err
		}
		m.Reg[alpha.V0] = n

	case alpha.PalOpen:
		m.Reg[alpha.V0] = m.sysOpen(uint64(a0), a1)

	case alpha.PalClose:
		m.Reg[alpha.V0] = m.sysClose(int(a0))

	case alpha.PalSbrk:
		m.Reg[alpha.V0] = m.sysSbrk(&m.brk, a0)

	case alpha.PalSbrk2:
		if m.brk2Sep {
			m.Reg[alpha.V0] = m.sysSbrk(&m.brk2, a0)
		} else {
			// Linked sbrks: both zones share one break pointer, so each
			// allocation starts where the other left off (paper,
			// Section 4, default dynamic-memory scheme).
			m.Reg[alpha.V0] = m.sysSbrk(&m.brk, a0)
		}

	case alpha.PalCycles:
		m.Reg[alpha.V0] = int64(m.Icount)

	default:
		return false, m.faultf("unknown PAL function %#x", fn)
	}
	return false, nil
}

func (m *Machine) sysWrite(fd int, buf uint64, n int64) (int64, error) {
	if n < 0 {
		return -1, nil
	}
	if err := m.checkAddr(buf, int(n)); err != nil {
		return 0, err
	}
	data := m.Mem[buf : buf+uint64(n)]
	switch fd {
	case 1:
		m.Stdout = append(m.Stdout, data...)
	case 2:
		m.Stderr = append(m.Stderr, data...)
	default:
		f := m.file(fd)
		if f == nil || f.reading {
			return -1, nil
		}
		f.data = append(f.data, data...)
	}
	return n, nil
}

func (m *Machine) sysRead(fd int, buf uint64, n int64) (int64, error) {
	if n < 0 {
		return -1, nil
	}
	if err := m.checkAddr(buf, int(n)); err != nil {
		return 0, err
	}
	var src []byte
	var pos *int
	if fd == 0 {
		src, pos = m.cfg.Stdin, &m.stdinPos
	} else {
		f := m.file(fd)
		if f == nil || !f.reading {
			return -1, nil
		}
		src, pos = f.data, &f.pos
	}
	avail := len(src) - *pos
	if avail <= 0 {
		return 0, nil
	}
	if int64(avail) < n {
		n = int64(avail)
	}
	copy(m.Mem[buf:buf+uint64(n)], src[*pos:])
	*pos += int(n)
	return n, nil
}

// sysOpen opens path (a NUL-terminated string at addr). flags: 0 read,
// 1 write (create or truncate).
func (m *Machine) sysOpen(addr uint64, flags int64) int64 {
	path, ok := m.cstring(addr)
	if !ok {
		return -1
	}
	switch flags {
	case 0:
		data, ok := m.cfg.FS[path]
		if !ok {
			// Files the program itself wrote earlier in this run are
			// readable back.
			if out, ok2 := m.FSOut[path]; ok2 {
				data = out
			} else {
				return -1
			}
		}
		m.files = append(m.files, &openFile{path: path, reading: true, data: data})
	case 1:
		m.files = append(m.files, &openFile{path: path})
	default:
		return -1
	}
	return int64(len(m.files) - 1)
}

func (m *Machine) sysClose(fd int) int64 {
	f := m.file(fd)
	if f == nil {
		return -1
	}
	f.closed = true
	if !f.reading {
		m.FSOut[f.path] = f.data
	}
	return 0
}

func (m *Machine) sysSbrk(brk *uint64, incr int64) int64 {
	old := *brk
	nw := uint64(int64(old) + incr)
	if nw > uint64(len(m.Mem)) || int64(nw) < int64(m.heapBase) {
		return -1
	}
	*brk = nw
	return int64(old)
}

func (m *Machine) file(fd int) *openFile {
	if fd < 3 || fd >= len(m.files) {
		return nil
	}
	f := m.files[fd]
	if f.closed {
		return nil
	}
	return f
}

func (m *Machine) cstring(addr uint64) (string, bool) {
	if addr >= uint64(len(m.Mem)) {
		return "", false
	}
	end := addr
	for end < uint64(len(m.Mem)) && m.Mem[end] != 0 {
		end++
		if end-addr > 4096 {
			return "", false
		}
	}
	return string(m.Mem[addr:end]), true
}

// flushFiles persists any still-open written files at exit, mirroring the
// kernel closing descriptors on process exit.
func (m *Machine) flushFiles() {
	for _, f := range m.files {
		if !f.closed && !f.reading && f.path != "<stdout>" && f.path != "<stderr>" && f.path != "<stdin>" {
			m.FSOut[f.path] = f.data
		}
	}
}

// ReadMem copies n bytes at addr; helper for tests and tools.
func (m *Machine) ReadMem(addr, n uint64) ([]byte, error) {
	if l := uint64(len(m.Mem)); n > l || addr > l-n {
		return nil, fmt.Errorf("vm: ReadMem %#x+%d out of range", addr, n)
	}
	out := make([]byte, n)
	copy(out, m.Mem[addr:])
	return out, nil
}
