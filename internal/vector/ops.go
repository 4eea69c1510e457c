package vector

import "fmt"

// This file holds the second tier of primitives: broadcast and the
// non-additive scan family. They are built on the same accounting as the
// core primitives in vector.go.

// Broadcast reads one element of src and replicates it into every element
// of dst. On the modeled machines a broadcast is a gather in which every
// processor reads the same location — per-location contention n — unless
// the value is first replicated; ReplicatedBroadcast does that. Having
// both makes the cost of naive broadcasting visible, which is the
// replicated-tree binary search's whole premise.
func (vm *Machine) Broadcast(dst, src *Vec, at int64) {
	vm.checkIndex("Broadcast", at, src)
	n := dst.Len()
	addrs := vm.addrBuf(n)
	for i := range addrs {
		addrs[i] = src.Base + uint64(at)
		dst.Data[i] = src.Data[at]
	}
	vm.charge("gather", vm.strideCost(n, 1)+vm.irregularCost("broadcast", addrs))
}

// ReplicatedBroadcast replicates src[at] into a p-entry scratch vector via
// a lg(p)-deep doubling tree (each step contention 1), then gathers from
// the scratch with per-location contention n/p. scratch must have at
// least Procs elements.
func (vm *Machine) ReplicatedBroadcast(dst, src *Vec, at int64, scratch *Vec) {
	p := vm.mach.Procs
	if scratch.Len() < p {
		panic(fmt.Sprintf("vector: ReplicatedBroadcast: scratch %d < procs %d", scratch.Len(), p))
	}
	vm.checkIndex("ReplicatedBroadcast", at, src)
	// Doubling tree: step k copies 2^k replicas to 2^k fresh slots.
	scratch.Data[0] = src.Data[at]
	made := 1
	for made < p {
		cnt := made
		if made+cnt > p {
			cnt = p - made
		}
		addrs := vm.addrBuf(cnt)
		for i := 0; i < cnt; i++ {
			scratch.Data[made+i] = scratch.Data[i]
			addrs[i] = scratch.Base + uint64(i)
		}
		vm.charge("gather", vm.strideCost(cnt, 1)+vm.irregularCost("broadcast-tree", addrs))
		made += cnt
	}
	// Final fan-out: processor i reads replica i (round-robin assignment
	// matches the charging layout).
	n := dst.Len()
	addrs := vm.addrBuf(n)
	for i := range addrs {
		addrs[i] = scratch.Base + uint64(i%p)
		dst.Data[i] = scratch.Data[i%p]
	}
	vm.charge("gather", vm.strideCost(n, 1)+vm.irregularCost("broadcast", addrs))
}

// ScanMax writes the exclusive prefix maximum of src into dst; dst[0]
// gets the identity (minimum int64).
func (vm *Machine) ScanMax(dst, src *Vec) {
	vm.checkLen("ScanMax", dst, src)
	acc := int64(-1) << 62
	for i, v := range src.Data {
		dst.Data[i] = acc
		if v > acc {
			acc = v
		}
	}
	vm.charge("scan", vm.strideCost(src.Len(), 4)+2*vm.mach.L)
}

// SegScanMax is the segmented exclusive prefix maximum; flags[i] != 0
// starts a segment. This is the "copy-scan" workhorse: with src holding
// values only at segment heads and -inf elsewhere, it propagates each
// head's value through its segment.
func (vm *Machine) SegScanMax(dst, src, flags *Vec) {
	vm.checkLen("SegScanMax", dst, src)
	vm.checkLen("SegScanMax", src, flags)
	acc := int64(-1) << 62
	for i, v := range src.Data {
		if flags.Data[i] != 0 {
			acc = int64(-1) << 62
		}
		dst.Data[i] = acc
		if v > acc {
			acc = v
		}
	}
	vm.charge("segscan", vm.strideCost(src.Len(), 5)+2*vm.mach.L)
}

// ReduceMax returns the maximum of src, or the identity for empty input.
func (vm *Machine) ReduceMax(src *Vec) int64 {
	acc := int64(-1) << 62
	for _, v := range src.Data {
		if v > acc {
			acc = v
		}
	}
	vm.charge("reduce", vm.strideCost(src.Len(), 1)+2*vm.mach.L)
	return acc
}
