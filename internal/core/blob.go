package core

import (
	"ccidx/internal/disk"
)

// Control information for a metablock (chunk lists, child table, TS index,
// corner index, ...) is variable length but O(B) bytes, so it occupies a
// constant number of disk blocks, exactly as the paper assumes ("we will use
// a constant number of disk blocks per metablock to store control
// information", proof of Theorem 3.2). We store it as a chained blob: each
// page holds [next blockID | length u16 | payload]. Reading or writing a
// blob of m pages counts m I/Os.

const blobHeader = 8 + 2

// blobCapacity is the payload capacity of one blob page.
func (t *Tree) blobCapacity() int { return t.cfg.PageSize() - blobHeader }

// blobPages is the chain length of an n-byte blob (at least one page, even
// for an empty blob).
func (t *Tree) blobPages(n int) int {
	if n == 0 {
		return 1
	}
	return (n + t.blobCapacity() - 1) / t.blobCapacity()
}

// writeBlob stores data as a fresh page chain and returns the head id.
func (t *Tree) writeBlob(data []byte) disk.BlockID {
	capPerPage := t.blobCapacity()
	// Build the chain back to front so each page knows its successor.
	var next disk.BlockID = disk.NilBlock
	for i := t.blobPages(len(data)) - 1; i >= 0; i-- {
		lo := i * capPerPage
		hi := lo + capPerPage
		if hi > len(data) {
			hi = len(data)
		}
		chunk := data[lo:hi]
		buf := t.wpage()
		putLE64(buf, uint64(int64(next)))
		buf[8] = byte(len(chunk))
		buf[9] = byte(len(chunk) >> 8)
		copy(buf[blobHeader:], chunk)
		id := t.dev.Alloc()
		disk.MustWriteAt(t.dev, id, buf)
		next = id
	}
	return next
}

// readBlob reads a page chain through zero-copy views into a fresh byte
// slice. Each chain page costs one I/O.
func (t *Tree) readBlob(head disk.BlockID) []byte {
	var data []byte
	for id := head; id != disk.NilBlock; {
		view := disk.MustView(t.dev, id)
		next := disk.BlockID(int64(le64(view)))
		n := int(uint16(view[8]) | uint16(view[9])<<8)
		data = append(data, view[blobHeader:blobHeader+n]...)
		t.dev.Release(id)
		id = next
	}
	return data
}

// freeBlob releases a page chain.
func (t *Tree) freeBlob(head disk.BlockID) {
	t.dropCtrl(head)
	for id := head; id != disk.NilBlock; {
		view := disk.MustView(t.dev, id)
		next := disk.BlockID(int64(le64(view)))
		t.dev.Release(id)
		disk.MustFreeAt(t.dev, id)
		id = next
	}
}

// rewriteBlob rewrites a chain in place, keeping the head id stable (parents
// reference metablocks by their control blob head, so the head must never
// move). Returns the head. When old is NilBlock a fresh chain is written.
func (t *Tree) rewriteBlob(old disk.BlockID, data []byte) disk.BlockID {
	if old == disk.NilBlock {
		return t.writeBlob(data)
	}
	t.dropCtrl(old)
	// Collect the existing chain ids.
	var ids []disk.BlockID
	for id := old; id != disk.NilBlock; {
		view := disk.MustView(t.dev, id)
		ids = append(ids, id)
		next := disk.BlockID(int64(le64(view)))
		t.dev.Release(id)
		id = next
	}
	capPerPage := t.blobCapacity()
	need := t.blobPages(len(data))
	for len(ids) < need {
		ids = append(ids, t.dev.Alloc())
	}
	for len(ids) > need {
		disk.MustFreeAt(t.dev, ids[len(ids)-1])
		ids = ids[:len(ids)-1]
	}
	for i := 0; i < need; i++ {
		lo := i * capPerPage
		hi := lo + capPerPage
		if hi > len(data) {
			hi = len(data)
		}
		chunk := data[lo:hi]
		page := t.wpage()
		var next disk.BlockID = disk.NilBlock
		if i+1 < need {
			next = ids[i+1]
		}
		putLE64(page, uint64(int64(next)))
		page[8] = byte(len(chunk))
		page[9] = byte(len(chunk) >> 8)
		copy(page[blobHeader:], chunk)
		disk.MustWriteAt(t.dev, ids[i], page)
	}
	return ids[0]
}
