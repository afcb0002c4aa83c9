package fs

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// words lays out a golden journal block: each uint64 little-endian, each
// string as its bytes.
func words(vs ...any) []byte {
	var b []byte
	for _, v := range vs {
		switch v := v.(type) {
		case int:
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		case string:
			b = append(b, v...)
		}
	}
	return b
}

// TestTxnEncoding pins the journal bytes of a transaction — descriptor,
// metadata, commit — and checks that a re-stamp touches only the
// generation, that every field decodes back, and that the three blocks,
// cut from one buffer, cannot write into each other.
func TestTxnEncoding(t *testing.T) {
	fs := &FS{pendingUnlinks: map[uint64][]direntOp{}, pendingNewDirs: map[uint64]direntOp{}}
	in := &inode{Ino: 7, Size: 12000, Nlink: 1, Extents: []extent{{Start: 100, Blocks: 2}, {Start: 200, Blocks: 1}}}
	newDir := direntOp{Dir: rootIno, Ino: 3, Add: true, Name: "db"}
	unlink := direntOp{Dir: 3, Ino: 5, Add: false, Name: "old"}
	fs.pendingNewDirs[3] = newDir
	fs.pendingUnlinks[3] = []direntOp{unlink}
	withFile := fs.buildTxn(&File{ino: in, parent: 3, name: "WAL", dirDirty: true})
	add := direntOp{Dir: 3, Ino: 7, Add: true, Name: "WAL"}
	noFile := fs.buildTxn(nil)
	if len(fs.pendingNewDirs) != 0 || len(fs.pendingUnlinks) != 0 {
		t.Fatalf("pending dirents not consumed: %v %v", fs.pendingNewDirs, fs.pendingUnlinks)
	}

	for _, tc := range []struct {
		name    string
		txn     *txnPayload
		id      uint64
		in      *inode
		dirents []direntOp
		want    [3][]byte
	}{{
		name: "inode, new dir, add, unlink", txn: withFile, id: 1, in: in,
		dirents: []direntOp{newDir, add, unlink},
		want: [3][]byte{
			words(magicDesc, 1, 5, 7, 3),
			words(72, 7, 12000, 0, 1, 2, 100, 2, 200, 1,
				rootIno, 3, 1, 2, "db",
				3, 7, 1, 3, "WAL",
				3, 5, 0, 3, "old"),
			words(magicCommit, 1, 5),
		},
	}, {
		name: "no file", txn: noFile, id: 2,
		want: [3][]byte{words(magicDesc, 2, 5, 0, 0), words(0), words(magicCommit, 2, 5)},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			blocks := tc.txn.blocks(5)
			if len(blocks) != 3 {
				t.Fatalf("%d blocks, want 3", len(blocks))
			}
			for i, b := range blocks {
				if !bytes.Equal(b, tc.want[i]) {
					t.Errorf("block %d:\n got %x\nwant %x", i, b, tc.want[i])
				}
			}

			// A re-stamp writes bytes 16–23 of the descriptor and of the
			// commit record, and nothing else.
			const gen = 0x0102030405060708
			before := [3][]byte{}
			for i, b := range blocks {
				before[i] = bytes.Clone(b)
			}
			blocks = tc.txn.blocks(gen)
			for i, b := range blocks {
				if i == 1 {
					if !bytes.Equal(b, before[i]) {
						t.Errorf("re-stamp changed the metadata block")
					}
					continue
				}
				if !bytes.Equal(b[:16], before[i][:16]) || !bytes.Equal(b[24:], before[i][24:]) ||
					binary.LittleEndian.Uint64(b[16:]) != gen {
					t.Errorf("re-stamp: block %d\n got %x\nfrom %x", i, b, before[i])
				}
			}

			// Every field decodes back.
			id, g, ino, nd, ok := decodeDescBlock(blocks[0])
			if !ok || id != tc.id || g != gen || nd != len(tc.dirents) {
				t.Errorf("descriptor decodes to id %d gen %d ino %d dirents %d ok %v", id, g, ino, nd, ok)
			}
			if tc.in != nil && ino != tc.in.Ino || tc.in == nil && ino != 0 {
				t.Errorf("descriptor inode %d", ino)
			}
			inodeBytes, dirents, ok := decodeMetaBlock(blocks[1], nd)
			if !ok || !reflect.DeepEqual(dirents, tc.dirents) {
				t.Errorf("metadata dirents %+v ok %v, want %+v", dirents, ok, tc.dirents)
			}
			if tc.in == nil {
				if len(inodeBytes) != 0 {
					t.Errorf("metadata carries an inode image %x", inodeBytes)
				}
			} else if got, ok := decodeInode(inodeBytes); !ok || !reflect.DeepEqual(got, tc.in) {
				t.Errorf("metadata inode %+v ok %v, want %+v", got, ok, tc.in)
			}
			if id, g, ok := decodeCommitBlock(blocks[2]); !ok || id != tc.id || g != gen {
				t.Errorf("commit decodes to id %d gen %d ok %v", id, g, ok)
			}

			// Capped capacity: appending to a block reallocates instead of
			// writing into the next one.
			for i, b := range blocks {
				if cap(b) != len(b) {
					t.Errorf("block %d: cap %d > len %d", i, cap(b), len(b))
				}
			}
			_ = append(blocks[0], 0xFF)
			_ = append(blocks[1], 0xFF)
			if blocks[1][0] != before[1][0] || blocks[2][0] != before[2][0] {
				t.Error("an append to one block wrote into the next")
			}
		})
	}
}
