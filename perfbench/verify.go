package main

// Answer verification, outside the timed path: every 200 from /query is
// reduced to a row count and an order-independent digest, and compared
// with the Naive evaluator on a reference database rebuilt from the
// acknowledged commits up to the answer's epoch.

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"sort"
	"strconv"
	"sync"

	cqbound "cqbound"
	"cqbound/internal/database"
	"cqbound/internal/eval"
	"cqbound/internal/relation"
)

// digest is an order-independent fingerprint of a set of rows.
type digest struct {
	rows int
	sum  uint64
}

// add folds one row, given as its values in attribute order.
func (d *digest) add(vals [][]byte) {
	h := fnv.New64a()
	for _, v := range vals {
		h.Write(v)
		h.Write([]byte{0xff})
	}
	d.rows++
	d.sum += mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: it spreads each row hash over all
// bits so the sum of row hashes stays a good fingerprint.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// digestOf fingerprints a relation, resolving values through d.
func digestOf(r *relation.Relation, d *relation.Dict) digest {
	var dg digest
	vals := make([][]byte, 0, len(r.Attrs))
	r.Each(func(t relation.Tuple) bool {
		vals = vals[:0]
		for _, s := range t.StringsIn(d) {
			vals = append(vals, []byte(s))
		}
		dg.add(vals)
		return true
	})
	return dg
}

// scanned is what verification needs from one /query body.
type scanned struct {
	epoch  uint64
	cached bool
	digest digest
}

// scanCache parses each distinct response body once: a body identical
// byte for byte to one already parsed has the same answer.
type scanCache struct {
	seed maphash.Seed
	mu   sync.Mutex
	seen map[[2]uint64]scanned
}

func newScanCache() *scanCache {
	return &scanCache{seed: maphash.MakeSeed(), seen: map[[2]uint64]scanned{}}
}

func (c *scanCache) scan(body []byte) (scanned, error) {
	key := [2]uint64{maphash.Bytes(c.seed, body), uint64(len(body))}
	c.mu.Lock()
	sc, ok := c.seen[key]
	c.mu.Unlock()
	if ok {
		return sc, nil
	}
	sc, err := scanQueryBody(body)
	if err != nil {
		return sc, err
	}
	c.mu.Lock()
	c.seen[key] = sc
	c.mu.Unlock()
	return sc, nil
}

// scanQueryBody reads epoch, cached and the tuples digest out of a /query
// JSON body without building the [][]string, and checks the row count
// the body states against the tuples it holds.
func scanQueryBody(b []byte) (scanned, error) {
	var sc scanned
	num := func(key string) (string, error) {
		i := bytes.Index(b, []byte(`"`+key+`":`))
		if i < 0 {
			return "", fmt.Errorf("no %q field", key)
		}
		j := i + len(key) + 3
		k := j
		for k < len(b) && b[k] != ',' && b[k] != '}' {
			k++
		}
		return string(b[j:k]), nil
	}
	s, err := num("epoch")
	if err != nil {
		return sc, err
	}
	if sc.epoch, err = strconv.ParseUint(s, 10, 64); err != nil {
		return sc, err
	}
	if s, err = num("rows"); err != nil {
		return sc, err
	}
	rows, err := strconv.Atoi(s)
	if err != nil {
		return sc, err
	}
	if s, err = num("cached"); err != nil {
		return sc, err
	}
	sc.cached = s == "true"

	i := bytes.Index(b, []byte(`"tuples":[`))
	if i < 0 {
		return sc, fmt.Errorf("no tuples field")
	}
	p := i + len(`"tuples":[`)
	var vals [][]byte
	for p < len(b) && b[p] != ']' {
		if b[p] == ',' {
			p++
		}
		if b[p] != '[' {
			return sc, fmt.Errorf("tuples: want '[' at %d", p)
		}
		p++
		vals = vals[:0]
		for b[p] != ']' {
			if b[p] == ',' {
				p++
			}
			v, next, err := jsonString(b, p)
			if err != nil {
				return sc, err
			}
			vals = append(vals, v)
			p = next
		}
		p++
		sc.digest.add(vals)
	}
	if sc.digest.rows != rows {
		return sc, fmt.Errorf("rows field %d, %d tuples", rows, sc.digest.rows)
	}
	return sc, nil
}

// jsonString decodes the JSON string starting at b[p] and returns it with
// the index just past it.
func jsonString(b []byte, p int) ([]byte, int, error) {
	if p >= len(b) || b[p] != '"' {
		return nil, 0, fmt.Errorf("want string at %d", p)
	}
	escaped := false
	for k := p + 1; k < len(b); k++ {
		switch b[k] {
		case '\\':
			escaped = true
			k++
		case '"':
			if !escaped {
				return b[p+1 : k], k + 1, nil
			}
			s, err := strconv.Unquote(string(b[p : k+1]))
			if err != nil {
				return nil, 0, err
			}
			return []byte(s), k + 1, nil
		}
	}
	return nil, 0, fmt.Errorf("unterminated string at %d", p)
}

// refKey names one reference answer.
type refKey struct {
	kind  string
	epoch uint64
}

type commitRec struct {
	epoch uint64
	rel   string
	rows  [][]string
}

// reference holds the base data, the acknowledged commits and every
// answer to check, and computes reference answers with Naive.
type reference struct {
	mu      sync.Mutex
	attrs   map[string][]string
	base    map[string][][]string
	order   []string
	loaded  uint64
	commits []commitRec
	answers map[refKey][]digest
	errs    []error
	// refs memoizes reference digests per kind and per the epoch at which
	// the relations of its query last changed.
	refs map[refKey]digest
}

func newReference() *reference {
	return &reference{
		attrs:   map[string][]string{},
		base:    map[string][][]string{},
		answers: map[refKey][]digest{},
		refs:    map[refKey]digest{},
	}
}

func (r *reference) addBase(name string, attrs []string, rows [][]string) {
	r.attrs[name], r.base[name] = attrs, rows
	r.order = append(r.order, name)
}

func (r *reference) committed(epoch uint64, rel string, rows [][]string) {
	r.mu.Lock()
	r.commits = append(r.commits, commitRec{epoch, rel, rows})
	r.mu.Unlock()
}

func (r *reference) answer(kind string, epoch uint64, d digest) {
	r.mu.Lock()
	r.answers[refKey{kind, epoch}] = append(r.answers[refKey{kind, epoch}], d)
	r.mu.Unlock()
}

// fail records an error that invalidates the run.
func (r *reference) fail(err error) {
	r.mu.Lock()
	r.errs = append(r.errs, err)
	r.mu.Unlock()
}

// verify checks every recorded answer. A mismatch, or any recorded
// failure of a direct call, fails the run. Answers are visited in epoch
// order while the acknowledged commits are replayed onto the base data;
// a reference answer is computed once per kind and per version of the
// relations its query reads.
func (r *reference) verify(texts map[string]string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) > 0 {
		return fmt.Errorf("%d errors, first: %w", len(r.errs), r.errs[0])
	}
	keys := make([]refKey, 0, len(r.answers))
	for k := range r.answers {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].epoch != keys[j].epoch {
			return keys[i].epoch < keys[j].epoch
		}
		return keys[i].kind < keys[j].kind
	})
	sort.SliceStable(r.commits, func(i, j int) bool { return r.commits[i].epoch < r.commits[j].epoch })

	// rels holds the reference relations as of the current epoch; pending
	// holds committed rows not yet added to them.
	rels := map[string]*relation.Relation{}
	pending := map[string][][]string{}
	version := map[string]uint64{}
	for _, name := range r.order {
		rel := relation.New(name, r.attrs[name]...)
		for _, row := range r.base[name] {
			rel.Add(row...)
		}
		rels[name] = rel
		version[name] = r.loaded
	}
	queries := map[string]*cqbound.Query{}
	next, mismatches, checked := 0, 0, 0
	var first error
	for _, k := range keys {
		if k.epoch < r.loaded {
			return fmt.Errorf("answer at epoch %d predates the load (epoch %d)", k.epoch, r.loaded)
		}
		for ; next < len(r.commits) && r.commits[next].epoch <= k.epoch; next++ {
			c := r.commits[next]
			pending[c.rel] = append(pending[c.rel], c.rows...)
			version[c.rel] = c.epoch
		}
		q, ok := queries[k.kind]
		if !ok {
			var err error
			if q, err = cqbound.Parse(texts[k.kind]); err != nil {
				return err
			}
			queries[k.kind] = q
		}
		// The reference depends only on the relations q reads.
		mk := refKey{k.kind, 0}
		for _, name := range q.BodyRelations() {
			mk.epoch = max(mk.epoch, version[name])
		}
		want, ok := r.refs[mk]
		if !ok {
			db := database.New()
			for _, name := range r.order {
				if rows := pending[name]; len(rows) > 0 {
					// A clone shares the columns until its first Add copies them.
					rel := rels[name].Clone("")
					for _, row := range rows {
						rel.Add(row...)
					}
					rels[name] = rel
					delete(pending, name)
				}
				if err := db.Add(rels[name]); err != nil {
					return err
				}
			}
			out, _, err := eval.NaiveCtx(context.Background(), q, db)
			if err != nil {
				return fmt.Errorf("naive %s at epoch %d: %w", k.kind, k.epoch, err)
			}
			want = digestOf(out, nil)
			r.refs[mk] = want
		}
		for _, got := range r.answers[k] {
			checked++
			if got != want {
				mismatches++
				if first == nil {
					first = fmt.Errorf("%s at epoch %d: %d rows (digest %x), Naive gives %d rows (digest %x)",
						k.kind, k.epoch, got.rows, got.sum, want.rows, want.sum)
				}
			}
		}
	}
	if checked == 0 {
		return fmt.Errorf("no answers to verify")
	}
	if mismatches > 0 {
		return fmt.Errorf("%d of %d answers wrong, first: %w", mismatches, checked, first)
	}
	return nil
}
