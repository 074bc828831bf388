package compile

// Artifact serialization for the store's disk tier.
//
// A spilled artifact is a gob-encoded wire image of the *back end* of the
// pipeline: the final machine code with all of its debugging annotations
// (statement tags, hoist/sunk/inserted marks, markers, recovery links,
// DefObj/UseObjs variable tags, frame and register-allocation tables) plus
// the global data layout — everything the debugger's tables and classifier
// consume. AST and semantic objects are not serialized; instructions refer
// to them by their dense per-function (local) or per-program (global)
// object IDs. Decoding replays only the deterministic front end
// (sem.CheckSource: parse + check) to re-establish object and statement
// identity, then reconstructs the machine program from the wire image —
// skipping optimization, lowering, register allocation and scheduling,
// which is where compile time goes. A sha256 of the canonical machine-code
// rendering is stored and re-verified on load, so a decoded artifact is
// byte-identical to what was spilled or it is rejected (and the caller
// falls back to a full compile).
//
// The rehydrated Result carries File, Sem and Mach; its IR field is nil
// (the optimized IR is not part of the debuggable artifact).

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/mach"
	"repro/internal/sem"
)

// spillVersion guards the wire format; bump on any wire-struct change.
const spillVersion = 2

type wireArtifact struct {
	Version int
	Name    string
	Src     string
	Cfg     Config

	Funcs      []wireFunc
	Globals    []int32 // mach.Program.Globals, by object ID
	GlobalOff  []wireOff
	GlobalSize int64
	GlobalInit []wireInit

	MachSum [sha256.Size]byte // sha256 of Mach.String(), re-verified on load
}

type wireFunc struct {
	Name      string
	Blocks    []wireBlock
	Entry     int32 // index into Blocks
	NumVregs  int
	NumVars   int
	FrameObjs []int32 // object refs, in order
	FrameOff  []wireOff
	FrameSize int64
	Allocated bool
	VarLoc    []wireVarLoc
	Scheduled bool
}

type wireBlock struct {
	ID        int
	LoopDepth int
	Succs     []int32 // indexes into wireFunc.Blocks
	Instrs    []wireInstr
}

type wireInstr struct {
	Op       mach.Opcode
	Dst      mach.Opd
	A, B     mach.Opd
	Off      int64
	Sym      int32 // object ref
	Callee   string
	Args     []mach.Opd
	PrintFmt []mach.PrintArg
	ParamIdx int

	MarkObj   int32 // object ref
	MarkAlias mach.Opd

	Stmt     int
	OrigIdx  int
	PreSched int

	// ir.Ann, flattened (its object pointers become refs).
	Hoisted     bool
	Sunk        bool
	InsertedBy  string
	ReplacedVar int32 // object ref
	HasRecover  bool
	RecoverVar  int32 // object ref
	RecoverA    int64
	RecoverB    int64

	DefObj  int32   // object ref
	UseObjs []int32 // object refs
}

// wireOff is one (object, frame/global offset) table row.
type wireOff struct {
	Obj int32
	Off int64
}

// wireVarLoc is one register-allocation table row.
type wireVarLoc struct {
	Obj int32
	Loc mach.Loc
}

// wireInit is one global initializer; the ir.Operand is flattened with its
// object pointer as a ref.
type wireInit struct {
	Obj  int32
	Kind ir.OpdKind
	Ty   ir.Ty
	TID  int
	Ref  int32 // Operand.Obj as an object ref
	Int  int64
	Fl   float64
}

// Object references: nil = -1, local (or param) = 2*ID, global = 2*ID+1.
// Locals resolve through FuncDecl.Locals and globals through
// sem.Program.Globals, both of which index by the IDs the checker assigns
// deterministically — so a front-end replay of the same source rebuilds
// the same reference space.

func encObj(o *ast.Object) int32 {
	if o == nil {
		return -1
	}
	if o.Kind == ast.ObjGlobal {
		return int32(o.ID)*2 + 1
	}
	return int32(o.ID) * 2
}

type objResolver struct {
	globals []*ast.Object // by ID
	locals  []*ast.Object // by ID, current function
}

func (r *objResolver) obj(ref int32) (*ast.Object, error) {
	if ref < 0 {
		return nil, nil
	}
	id := int(ref / 2)
	if ref%2 == 1 {
		if id >= len(r.globals) {
			return nil, fmt.Errorf("spill: global object #%d out of range", id)
		}
		return r.globals[id], nil
	}
	if id >= len(r.locals) {
		return nil, fmt.Errorf("spill: local object #%d out of range", id)
	}
	return r.locals[id], nil
}

// EncodeSpill serializes a compiled artifact for the disk tier. The
// source text and configuration ride along (they are the artifact's
// identity and drive the front-end replay on load).
func EncodeSpill(cfg Config, res *Result) ([]byte, error) {
	w := wireArtifact{
		Version:    spillVersion,
		Name:       res.File.Name,
		Src:        res.File.Content,
		Cfg:        cfg,
		GlobalSize: res.Mach.GlobalSize,
		MachSum:    sha256.Sum256(res.Mach.AppendTo(nil)),
	}
	for _, g := range res.Mach.Globals {
		w.Globals = append(w.Globals, encObj(g))
	}
	w.GlobalOff = encOffs(res.Mach.GlobalOff)
	for _, o := range sortedObjs(res.Mach.GlobalInit) {
		op := res.Mach.GlobalInit[o]
		w.GlobalInit = append(w.GlobalInit, wireInit{
			Obj: encObj(o), Kind: op.Kind, Ty: op.Ty, TID: op.TID,
			Ref: encObj(op.Obj), Int: op.Int, Fl: op.Fl,
		})
	}
	for _, f := range res.Mach.Funcs {
		wf, err := encFunc(f)
		if err != nil {
			return nil, err
		}
		w.Funcs = append(w.Funcs, wf)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func encFunc(f *mach.Func) (wireFunc, error) {
	wf := wireFunc{
		Name:      f.Name,
		NumVregs:  f.NumVregs,
		NumVars:   f.NumVars,
		FrameSize: f.FrameSize,
		Allocated: f.Allocated,
		Scheduled: f.Scheduled,
		Entry:     -1,
	}
	blockIdx := make(map[*mach.Block]int32, len(f.Blocks))
	for i, b := range f.Blocks {
		blockIdx[b] = int32(i)
	}
	if f.Entry != nil {
		idx, ok := blockIdx[f.Entry]
		if !ok {
			return wf, fmt.Errorf("spill: entry block of %s not in Blocks", f.Name)
		}
		wf.Entry = idx
	}
	for _, o := range f.FrameObjects {
		wf.FrameObjs = append(wf.FrameObjs, encObj(o))
	}
	wf.FrameOff = encOffs(f.FrameOff)
	for _, o := range sortedObjs(f.VarLoc) {
		wf.VarLoc = append(wf.VarLoc, wireVarLoc{Obj: encObj(o), Loc: f.VarLoc[o]})
	}
	wf.Blocks = make([]wireBlock, 0, len(f.Blocks))
	for _, b := range f.Blocks {
		wb := wireBlock{ID: b.ID, LoopDepth: b.LoopDepth, Instrs: make([]wireInstr, 0, len(b.Instrs))}
		for _, s := range b.Succs {
			idx, ok := blockIdx[s]
			if !ok {
				return wf, fmt.Errorf("spill: successor of L%d not in Blocks of %s", b.ID, f.Name)
			}
			wb.Succs = append(wb.Succs, idx)
		}
		for _, in := range b.Instrs {
			wb.Instrs = append(wb.Instrs, encInstr(in))
		}
		wf.Blocks = append(wf.Blocks, wb)
	}
	return wf, nil
}

func encInstr(in *mach.Instr) wireInstr {
	wi := wireInstr{
		Op: in.Op, Dst: in.Dst, A: in.A, B: in.B, Off: in.Off,
		Sym: encObj(in.Sym), Callee: in.Callee, ParamIdx: in.ParamIdx,
		MarkObj: encObj(in.MarkObj), MarkAlias: in.MarkAlias,
		Stmt: in.Stmt, OrigIdx: in.OrigIdx, PreSched: in.PreSched,
		Hoisted: in.Ann.Hoisted, Sunk: in.Ann.Sunk, InsertedBy: in.Ann.InsertedBy,
		ReplacedVar: encObj(in.Ann.ReplacedVar),
		DefObj:      encObj(in.DefObj),
	}
	if len(in.Args) > 0 {
		wi.Args = append([]mach.Opd(nil), in.Args...)
	}
	if len(in.PrintFmt) > 0 {
		wi.PrintFmt = append([]mach.PrintArg(nil), in.PrintFmt...)
	}
	if r := in.Ann.Recover; r != nil {
		wi.HasRecover = true
		wi.RecoverVar = encObj(r.Var)
		wi.RecoverA, wi.RecoverB = r.A, r.B
	}
	for _, u := range in.UseObjs {
		wi.UseObjs = append(wi.UseObjs, encObj(u))
	}
	return wi
}

// DecodeSpill reconstructs a compiled artifact from its serialized form,
// replaying the front end over the embedded source to re-establish AST and
// object identity, and verifies the machine-code rendering byte-for-byte
// against the recorded digest. It returns the Result, the configuration it
// was compiled under, and the name/source identity.
func DecodeSpill(data []byte) (res *Result, name, src string, cfg Config, err error) {
	var w wireArtifact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, "", "", Config{}, err
	}
	if w.Version != spillVersion {
		return nil, "", "", Config{}, fmt.Errorf("spill: version %d, want %d", w.Version, spillVersion)
	}
	p, err := sem.CheckSource(w.Name, w.Src)
	if err != nil {
		return nil, "", "", Config{}, fmt.Errorf("spill: front-end replay: %w", err)
	}
	r := &objResolver{globals: p.Globals}
	mp := &mach.Program{
		GlobalOff:  map[*ast.Object]int64{},
		GlobalSize: w.GlobalSize,
		GlobalInit: map[*ast.Object]ir.Operand{},
	}
	for _, ref := range w.Globals {
		o, err := r.obj(ref)
		if err != nil {
			return nil, "", "", Config{}, err
		}
		mp.Globals = append(mp.Globals, o)
	}
	for _, row := range w.GlobalOff {
		o, err := r.obj(row.Obj)
		if err != nil {
			return nil, "", "", Config{}, err
		}
		mp.GlobalOff[o] = row.Off
	}
	for _, wi := range w.GlobalInit {
		o, err := r.obj(wi.Obj)
		if err != nil {
			return nil, "", "", Config{}, err
		}
		ref, err := r.obj(wi.Ref)
		if err != nil {
			return nil, "", "", Config{}, err
		}
		mp.GlobalInit[o] = ir.Operand{Kind: wi.Kind, Ty: wi.Ty, TID: wi.TID, Obj: ref, Int: wi.Int, Fl: wi.Fl}
	}
	for i := range w.Funcs {
		f, err := decFunc(&w.Funcs[i], p, r)
		if err != nil {
			return nil, "", "", Config{}, err
		}
		mp.Funcs = append(mp.Funcs, f)
	}
	if sum := sha256.Sum256(mp.AppendTo(nil)); sum != w.MachSum {
		return nil, "", "", Config{}, fmt.Errorf("spill: machine-code digest mismatch (stale or corrupt artifact)")
	}
	return &Result{File: p.File.Source, Sem: p, Mach: mp}, w.Name, w.Src, w.Cfg, nil
}

func decFunc(wf *wireFunc, p *sem.Program, r *objResolver) (*mach.Func, error) {
	decl := p.File.LookupFunc(wf.Name)
	if decl == nil {
		return nil, fmt.Errorf("spill: function %q not in replayed front end", wf.Name)
	}
	r.locals = decl.Locals
	f := &mach.Func{
		Name: wf.Name, Decl: decl,
		NumVregs: wf.NumVregs, NumVars: wf.NumVars,
		FrameOff: map[*ast.Object]int64{}, FrameSize: wf.FrameSize,
		Allocated: wf.Allocated, Scheduled: wf.Scheduled,
	}
	for _, ref := range wf.FrameObjs {
		o, err := r.obj(ref)
		if err != nil {
			return nil, err
		}
		f.FrameObjects = append(f.FrameObjects, o)
	}
	for _, row := range wf.FrameOff {
		o, err := r.obj(row.Obj)
		if err != nil {
			return nil, err
		}
		f.FrameOff[o] = row.Off
	}
	if len(wf.VarLoc) > 0 {
		f.VarLoc = map[*ast.Object]mach.Loc{}
		for _, row := range wf.VarLoc {
			o, err := r.obj(row.Obj)
			if err != nil {
				return nil, err
			}
			f.VarLoc[o] = row.Loc
		}
	}
	blocks := make([]*mach.Block, len(wf.Blocks))
	for i := range wf.Blocks {
		blocks[i] = &mach.Block{ID: wf.Blocks[i].ID, LoopDepth: wf.Blocks[i].LoopDepth}
	}
	for i := range wf.Blocks {
		wb := &wf.Blocks[i]
		b := blocks[i]
		for _, sidx := range wb.Succs {
			if int(sidx) >= len(blocks) || sidx < 0 {
				return nil, fmt.Errorf("spill: successor index %d out of range in %s", sidx, wf.Name)
			}
			b.Succs = append(b.Succs, blocks[sidx])
		}
		for j := range wb.Instrs {
			in, err := decInstr(&wb.Instrs[j], r)
			if err != nil {
				return nil, err
			}
			b.Instrs = append(b.Instrs, in)
		}
		if t := b.Term(); t != nil && len(b.Succs) < branchTargets(t.Op) {
			return nil, fmt.Errorf("spill: %s in L%d of %s has %d successors", t.Op, b.ID, wf.Name, len(b.Succs))
		}
	}
	f.Blocks = blocks
	if wf.Entry >= 0 {
		if int(wf.Entry) >= len(blocks) {
			return nil, fmt.Errorf("spill: entry index %d out of range in %s", wf.Entry, wf.Name)
		}
		f.Entry = blocks[wf.Entry]
	}
	f.RecomputePreds()
	return f, nil
}

func decInstr(wi *wireInstr, r *objResolver) (*mach.Instr, error) {
	sym, err := r.obj(wi.Sym)
	if err != nil {
		return nil, err
	}
	markObj, err := r.obj(wi.MarkObj)
	if err != nil {
		return nil, err
	}
	replaced, err := r.obj(wi.ReplacedVar)
	if err != nil {
		return nil, err
	}
	defObj, err := r.obj(wi.DefObj)
	if err != nil {
		return nil, err
	}
	in := &mach.Instr{
		Op: wi.Op, Dst: wi.Dst, A: wi.A, B: wi.B, Off: wi.Off,
		Sym: sym, Callee: wi.Callee, ParamIdx: wi.ParamIdx,
		MarkObj: markObj, MarkAlias: wi.MarkAlias,
		Stmt: wi.Stmt, OrigIdx: wi.OrigIdx, PreSched: wi.PreSched,
		Ann:    ir.Ann{Hoisted: wi.Hoisted, Sunk: wi.Sunk, InsertedBy: wi.InsertedBy, ReplacedVar: replaced},
		DefObj: defObj,
	}
	if len(wi.Args) > 0 {
		in.Args = append([]mach.Opd(nil), wi.Args...)
	}
	if len(wi.PrintFmt) > 0 {
		in.PrintFmt = append([]mach.PrintArg(nil), wi.PrintFmt...)
	}
	if wi.HasRecover {
		rv, err := r.obj(wi.RecoverVar)
		if err != nil {
			return nil, err
		}
		in.Ann.Recover = &ir.LinRecovery{Var: rv, A: wi.RecoverA, B: wi.RecoverB}
	}
	for _, ref := range wi.UseObjs {
		o, err := r.obj(ref)
		if err != nil {
			return nil, err
		}
		in.UseObjs = append(in.UseObjs, o)
	}
	if err := checkInstr(in); err != nil {
		return nil, err
	}
	return in, nil
}

// checkInstr rejects a decoded instruction the renderer behind the digest
// check would dereference nil on: an object its opcode names, or a
// recovery's variable, that resolved to no object. Opcodes and operands
// render whatever their values, and a changed one fails the digest, so
// this is the check that turns a corrupt image into an error rather than
// a panic.
func checkInstr(in *mach.Instr) error {
	switch {
	case in.Op == mach.LA && in.Sym == nil:
		return fmt.Errorf("spill: la without a symbol")
	case in.IsMarker() && in.MarkObj == nil:
		return fmt.Errorf("spill: %s without an object", in.Op)
	case in.Ann.Recover != nil && in.Ann.Recover.Var == nil:
		return fmt.Errorf("spill: %s: recovery without a variable", in.Op)
	}
	return nil
}

// branchTargets is how many successors a block ending in op must have.
func branchTargets(op mach.Opcode) int {
	switch op {
	case mach.BNEZ:
		return 2
	case mach.J:
		return 1
	}
	return 0
}

// encOffs flattens an offset table deterministically (sorted by object ID,
// globals after locals).
func encOffs(m map[*ast.Object]int64) []wireOff {
	out := make([]wireOff, 0, len(m))
	for _, o := range sortedObjs(m) {
		out = append(out, wireOff{Obj: encObj(o), Off: m[o]})
	}
	return out
}

// sortedObjs returns a map's object keys ordered by their encoded ref, so
// encoding is deterministic across runs.
func sortedObjs[T any](m map[*ast.Object]T) []*ast.Object {
	objs := make([]*ast.Object, 0, len(m))
	for o := range m {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return encObj(objs[i]) < encObj(objs[j]) })
	return objs
}
