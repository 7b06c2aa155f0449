package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Every input the ORB sees is drawn here from the workload seed. Each
// input kind has its own stream, derived from the seed and the stream's
// name, so adding draws to one kind never shifts another.

// stream returns the random stream called name for seed.
func stream(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name)) // hash.Hash writes never fail
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// strata returns n draws of f(u) with u stratified over [0, 1): one draw
// in each of n equal slices, in seeded order. Every seed then gets the
// same spread of values, so runs with different seeds do comparable work.
func strata(r *rand.Rand, n int, f func(u float64) int) []int {
	out := make([]int, n)
	for i, j := range r.Perm(n) {
		out[i] = f((float64(j) + r.Float64()) / float64(n))
	}
	return out
}

// logUniformAt maps u in [0, 1) to an integer in [lo, hi] whose logarithm
// is uniform.
func logUniformAt(u float64, lo, hi int) int {
	a, b := math.Log(float64(lo)), math.Log(float64(hi))
	v := int(math.Round(math.Exp(a + u*(b-a))))
	return min(max(v, lo), hi)
}

// medianSized returns the index of the median-sized of n inputs. Set-ups
// use it, so that their first operation does the same work on every seed.
func medianSized(n int, size func(i int) int) int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return size(idx[a]) < size(idx[b]) })
	return idx[n/2]
}

// payload returns size seeded bytes.
func payload(r *rand.Rand, size int) []byte {
	p := make([]byte, size)
	_, _ = r.Read(p) // math/rand Read never fails
	return p
}

// schedule yields Poisson arrival offsets at a fixed mean rate.
type schedule struct {
	r    *rand.Rand
	mean float64 // mean gap in ns
	at   float64 // offset of the last arrival in ns
}

func newSchedule(seed int64, ratePerSec int) *schedule {
	return &schedule{r: stream(seed, "arrivals"), mean: 1e9 / float64(ratePerSec)}
}

// next returns the offset of the next arrival from the start of the
// schedule.
func (s *schedule) next() time.Duration {
	s.at += s.r.ExpFloat64() * s.mean
	return time.Duration(s.at)
}

// rpcCall is one rpc-small request: its payload and whether it goes over
// the GIOP 9.9 (QoS) binding or the plain GIOP 1.0 one.
type rpcCall struct {
	body []byte
	qos  bool
}

// rpcPoolSize is the number of distinct rpc-small requests; the workload
// cycles through them.
const rpcPoolSize = 2048

// rpcCalls draws the rpc-small request pool: stratified log-uniform
// 16 B–2 KiB payloads, exactly half of them over the QoS binding.
func rpcCalls(seed int64) []rpcCall {
	sizes := strata(stream(seed, "rpc.sizes"), rpcPoolSize, func(u float64) int { return logUniformAt(u, 16, 2048) })
	mix := stream(seed, "rpc.mix").Perm(rpcPoolSize)
	body := stream(seed, "rpc.body")
	calls := make([]rpcCall, rpcPoolSize)
	for i := range calls {
		calls[i] = rpcCall{body: payload(body, sizes[i]), qos: mix[i]%2 == 1}
	}
	return calls
}

// bulkPoolSize is the number of distinct qos-bulk payloads.
const bulkPoolSize = 32

// bulkBodies draws the qos-bulk payload pool: stratified uniform
// 16–64 KiB.
func bulkBodies(seed int64) [][]byte {
	sizes := strata(stream(seed, "bulk.sizes"), bulkPoolSize, func(u float64) int { return 16<<10 + int(u*(48<<10+1)) })
	body := stream(seed, "bulk.body")
	out := make([][]byte, bulkPoolSize)
	for i := range out {
		out[i] = payload(body, sizes[i])
	}
	return out
}

// bulkQoS draws, for each qos-bulk caller, whether its binding also asks
// for encryption (reliable+encrypted) or not (reliable): half the callers
// each way, which ones seeded.
func bulkQoS(seed int64, callers int) []bool {
	out := make([]bool, callers)
	for i, j := range stream(seed, "bulk.qos").Perm(callers) {
		out[i] = j%2 == 1
	}
	return out
}

// sessionPoolSize is the number of distinct qos-sessions draws.
const sessionPoolSize = 1000

// sessionDraws draws the menu entry of each qos-sessions session: every
// entry equally often, in seeded order.
func sessionDraws(seed int64) []int {
	out := stream(seed, "sessions.menu").Perm(sessionPoolSize)
	for i := range out {
		out[i] %= len(sessionMenu)
	}
	return out
}

// sessionBodies draws the small echo payloads of qos-sessions: stratified
// log-uniform 16–256 B.
func sessionBodies(seed int64) [][]byte {
	sizes := strata(stream(seed, "sessions.sizes"), 64, func(u float64) int { return logUniformAt(u, 16, 256) })
	body := stream(seed, "sessions.body")
	out := make([][]byte, len(sizes))
	for i := range out {
		out[i] = payload(body, sizes[i])
	}
	return out
}
