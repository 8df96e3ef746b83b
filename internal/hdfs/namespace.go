package hdfs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"ear/internal/topology"
)

// Namespace errors.
var (
	// ErrFileExists indicates a Create for an existing path.
	ErrFileExists = errors.New("hdfs: file exists")
	// ErrFileNotFound indicates an unknown path.
	ErrFileNotFound = errors.New("hdfs: file not found")
	// ErrFileOpen indicates an operation requiring a closed file.
	ErrFileOpen = errors.New("hdfs: file still open")
)

// FileInfo describes one file in the namespace.
type FileInfo struct {
	Path string
	// Blocks lists the file's blocks in order.
	Blocks []topology.BlockID
	// BlockSizes[i] is the number of valid bytes in Blocks[i]; every
	// Append is block-aligned, so the final block of each append may be
	// partial (zero-padded on disk, like HDFS's last block).
	BlockSizes []int
	// Size is the logical size in bytes.
	Size int
	// Closed files are immutable and eligible for encoding.
	Closed bool
}

// Namespace is the file layer over the block store: HDFS-style append-only
// files, each a sequence of fixed-size blocks. Erasure coding remains
// block-level and inter-file (stripes may span files), exactly as
// Facebook's HDFS-RAID operates.
type Namespace struct {
	mu    sync.Mutex
	c     *Cluster
	files map[string]*FileInfo
}

// Namespace returns the cluster's file namespace.
func (c *Cluster) Namespace() *Namespace { return c.ns }

// Create registers an empty open file.
func (ns *Namespace) Create(path string) error {
	if path == "" {
		return fmt.Errorf("%w: empty path", ErrInvalidConfig)
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if _, ok := ns.files[path]; ok {
		return fmt.Errorf("%w: %s", ErrFileExists, path)
	}
	ns.files[path] = &FileInfo{Path: path}
	return nil
}

// Append writes data to the end of an open file with a background context.
// See AppendCtx.
func (ns *Namespace) Append(client topology.NodeID, path string, data []byte) error {
	return ns.AppendCtx(context.Background(), client, path, data)
}

// AppendCtx writes data to the end of an open file from the given client
// node, splitting it into blocks (the final partial block is zero-padded).
// Block writes go through the normal replication pipeline; a cancelled
// context aborts the in-flight block write and leaves the file at the last
// fully appended block.
func (ns *Namespace) AppendCtx(ctx context.Context, client topology.NodeID, path string, data []byte) error {
	ns.mu.Lock()
	fi, ok := ns.files[path]
	if !ok {
		ns.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrFileNotFound, path)
	}
	if fi.Closed {
		ns.mu.Unlock()
		return fmt.Errorf("hdfs: %s is closed for writing", path)
	}
	ns.mu.Unlock()

	bs := ns.c.cfg.BlockSizeBytes
	var blocks []topology.BlockID
	var sizes []int
	record := func() {
		ns.mu.Lock()
		fi.Blocks = append(fi.Blocks, blocks...)
		fi.BlockSizes = append(fi.BlockSizes, sizes...)
		for _, s := range sizes {
			fi.Size += s
		}
		ns.mu.Unlock()
	}
	for off := 0; off < len(data); off += bs {
		chunk := make([]byte, bs)
		valid := copy(chunk, data[off:])
		id, err := ns.c.WriteBlockCtx(ctx, client, chunk)
		if err != nil {
			record()
			return fmt.Errorf("append %s: %w", path, err)
		}
		blocks = append(blocks, id)
		sizes = append(sizes, valid)
	}
	record()
	return nil
}

// Close seals the file; it becomes immutable and encodable.
func (ns *Namespace) Close(path string) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	fi, ok := ns.files[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrFileNotFound, path)
	}
	fi.Closed = true
	return nil
}

// Read returns the file's full contents with a background context. See
// ReadCtx.
func (ns *Namespace) Read(client topology.NodeID, path string) ([]byte, error) {
	return ns.ReadCtx(context.Background(), client, path)
}

// ReadCtx returns the file's full contents to the client node, reading each
// block from its nearest live replica (or via degraded reconstruction).
func (ns *Namespace) ReadCtx(ctx context.Context, client topology.NodeID, path string) ([]byte, error) {
	ns.mu.Lock()
	fi, ok := ns.files[path]
	if !ok {
		ns.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrFileNotFound, path)
	}
	blocks := append([]topology.BlockID(nil), fi.Blocks...)
	sizes := append([]int(nil), fi.BlockSizes...)
	size := fi.Size
	ns.mu.Unlock()

	out := make([]byte, 0, size)
	for i, b := range blocks {
		data, err := ns.c.ReadBlockCtx(ctx, client, b)
		if err != nil {
			return nil, fmt.Errorf("read %s block %d: %w", path, b, err)
		}
		out = append(out, data[:sizes[i]]...)
	}
	return out, nil
}

// Stat returns a copy of the file's metadata.
func (ns *Namespace) Stat(path string) (FileInfo, error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	fi, ok := ns.files[path]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrFileNotFound, path)
	}
	cp := *fi
	cp.Blocks = append([]topology.BlockID(nil), fi.Blocks...)
	cp.BlockSizes = append([]int(nil), fi.BlockSizes...)
	return cp, nil
}

// List returns every path in lexical order.
func (ns *Namespace) List() []string {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	paths := make([]string, 0, len(ns.files))
	for p := range ns.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Delete removes a closed file from the namespace and deletes its blocks'
// surviving replicas from the DataNodes. Blocks already encoded stay in
// their stripes (HDFS-RAID garbage-collects parity separately); their
// metadata is retained by the NameNode.
func (ns *Namespace) Delete(path string) error {
	ns.mu.Lock()
	fi, ok := ns.files[path]
	if !ok {
		ns.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrFileNotFound, path)
	}
	if !fi.Closed {
		ns.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrFileOpen, path)
	}
	delete(ns.files, path)
	blocks := fi.Blocks
	ns.mu.Unlock()

	for _, b := range blocks {
		live, err := ns.c.nn.LiveReplicas(b)
		if err != nil {
			continue
		}
		meta, err := ns.c.nn.Block(b)
		if err != nil || meta.Encoded {
			continue
		}
		for _, n := range live {
			dn, err := ns.c.DataNodeOf(n)
			if err != nil {
				continue
			}
			// Best effort: the replica may already be gone.
			_ = dn.Store.Delete(DataKey(b))
		}
	}
	return nil
}
