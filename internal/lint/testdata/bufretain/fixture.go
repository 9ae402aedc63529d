// Package fixture exercises the bufretain check. The local querier
// mimics the BlockQuerier contract: the *Into and QueryBlock methods
// return aliases of an internal scratch buffer that the next call
// overwrites.
package fixture

type querier struct {
	scratch []float64
	out     []uint64
}

func (q *querier) SignalProbsInto(dst []float64) []float64 {
	if cap(q.scratch) == 0 {
		q.scratch = make([]float64, 8)
	}
	return q.scratch
}

func (q *querier) EvalNoisyBlockInto(out []uint64, words int) []uint64 {
	return q.out
}

func (q *querier) QueryBlock(x []bool, words int) []uint64 {
	return q.out
}

func UncertaintiesInto(probs, dst []float64) []float64 {
	return probs
}

type holder struct {
	buf        []float64
	history    [][]float64
	batchAlias []uint64
}

var globalBuf []float64

func badFieldStore(h *holder, q *querier) {
	h.buf = q.SignalProbsInto(nil) // want `\[bufretain\] result of SignalProbsInto .* struct field buf`
}

func badGlobalStore(q *querier) {
	globalBuf = UncertaintiesInto(q.SignalProbsInto(nil), nil) // want `\[bufretain\] result of UncertaintiesInto .* package-level var globalBuf`
}

func badAppendElement(h *holder, q *querier) {
	h.history = append(h.history, q.SignalProbsInto(nil)) // want `\[bufretain\] result of SignalProbsInto .* struct field history`
}

func badAppendFirstArg(h *holder, q *querier) {
	h.batchAlias = append(q.EvalNoisyBlockInto(nil, 4), 0) // want `\[bufretain\] result of EvalNoisyBlockInto .* struct field batchAlias`
}

func badCompositeLit(q *querier) holder {
	return holder{buf: q.SignalProbsInto(nil)} // want `\[bufretain\] result of SignalProbsInto .* composite literal`
}

func badBlockFieldStore(h *holder, q *querier) {
	h.batchAlias = q.EvalNoisyBlockInto(nil, 4) // want `\[bufretain\] result of EvalNoisyBlockInto .* struct field batchAlias`
}

func badQueryBlockStore(h *holder, q *querier) {
	h.batchAlias = q.QueryBlock(nil, 4) // want `\[bufretain\] result of QueryBlock .* struct field batchAlias`
}

func goodBlockCopy(h *holder, q *querier) {
	h.batchAlias = append(h.batchAlias[:0], q.QueryBlock(nil, 4)...)
}

func goodLocalReuse(q *querier) float64 {
	var buf []float64
	buf = q.SignalProbsInto(buf)
	sum := 0.0
	for _, v := range buf {
		sum += v
	}
	return sum
}

func goodExplicitCopy(h *holder, q *querier) {
	h.buf = append(h.buf[:0], q.SignalProbsInto(nil)...)
}
