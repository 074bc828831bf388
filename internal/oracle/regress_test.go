package oracle

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/randprog"
)

// Each test here pins a classifier soundness defect found by the
// differential oracle on the randprog corpus. The sources are ddmin-
// minimized seeds; the assertion is the oracle's own: a full O0-vs-
// optimized differential over every stop must record no mismatch.

func diffClean(t *testing.T, name, src string) {
	t.Helper()
	for cfgName, cfg := range DefaultConfigs() {
		ms, err := diffSource(0, name, src, map[string]compile.Config{cfgName: cfg}, 200, nil)
		if err != nil {
			t.Fatalf("%s: %v", cfgName, err)
		}
		for _, m := range ms {
			t.Errorf("%s: %s", cfgName, m)
		}
	}
}

// Seed 7 (minimized): the scheduler moved the array store of s7 below
// the s8 breakpoint instruction, so at the stop buf[0] had not been
// written yet — but the classifier reported addressed variables
// unconditionally Current, displaying the stale memory image as truth.
// Fixed by applyMemSched: memory-resident variables at a breakpoint
// crossed by a reordered store are Noncurrent (by scheduling).
func TestRegressArrayStoreSched(t *testing.T) {
	diffClean(t, "regress_a.mc", `struct S0 { int f0; int f1; };
int h0(int p0, int p1, struct S0 sp) {
	int chk = 1;
	if (p1 > (p1 + p1) && (p1 - chk) != chk) {
	}
}
int main() {
	int chk = 7;
	int buf[4];
	int v8 = chk;
	for (int i9 = 0; i9 < 4; i9++) {
		for (int i10 = 0; i10 < 7; i10++) {
			buf[i10 % 4] = (v8 + chk);
		}
	}
}`)
}

// Seed 11 (minimized): chk's initializer "chk = 7" was eliminated with
// a const-7 recovery marker; the later real reassignment of chk (its
// kill) was scheduled below the s4 breakpoint instruction, so the
// stale entity still must-reached the stop and recovery fabricated 7
// where O0 shows 217. Fixed by recStaleBySched: a recovery is dropped
// when a real definition of the variable precedes the breakpoint in
// source order but sits below it in scheduled order.
func TestRegressStaleConstRecovery(t *testing.T) {
	diffClean(t, "regress_b.mc", `struct S0 { int f0; int f1; int f2; int f3; };
int G1 = 36;
int G2 = 34;
struct S0 GS;
int main() {
	int chk = 7;
	struct S0 s11;
	int v12 = ((G2 + G1) / (((GS.f1 + -57) % 9 + 9) % 9 + 1));
	chk = (chk * 31 + GS.f3) % 65521;
	int v13 = G1;
	if ((G1 + chk) < (G2 % ((GS.f1 % 7 + 7) % 7 + 1)) && (v13 % ((chk % 7 + 7) % 7 + 1)) == s11.f1) {
	}
	if (-50 >= 7 || chk > v12) {
		chk = (chk * 31 + v12) % 65521;
	}
	return chk % 256;
}`)
}

// Seed 25 (minimized): the markdead for s18.f0 aliased the register
// that had held v15, but v15's live range ended before the marker and
// the allocator reused the register for an unrelated value ("mul r1,
// r0, 31") between the two — the marker's alias was stale at its own
// generation point, and recovery read garbage. ValidateMarkers cannot
// see this (it runs on IR, before physical registers exist). Fixed by
// regalloc's pruneStaleAliases: a MarkAlias whose vreg is not live at
// the marker's position is dropped during rewrite.
func TestRegressStaleRegisterAlias(t *testing.T) {
	diffClean(t, "regress_c.mc", `struct S0 { int f0; int f1; int f2; };
int G1 = 98;
struct S0 GS;
int main() {
	int chk = 7;
	int v15 = ((GS.f1 + -11) - G1);
	for (int i16 = 0; i16 < 5; i16++) {
	}
	chk = (chk * 31 + v15) % 65521;
	chk = (chk * 31 + GS.f1) % 65521;
	struct S0 s18;
	s18.f0 = v15;
	print("chk=", chk, "\n");
	return chk % 256;
}`)
}

// Seed 99 (minimized): assignprop rebuilt the loop's chk assignment, so
// the rebuilt instruction carried a fresh emission index and OrigIdx no
// longer reflected source order — schedEndangered compared it against
// the breakpoint's OrigIdx and concluded the definition was "scheduled
// early" when it had merely been re-emitted. Fixed by stamping
// Instr.PreSched (the pre-scheduling block position) in sched and
// basing all three scheduling checks on it; OrigIdx is no longer
// consulted for ordering.
func TestRegressSchedRebuiltOrigIdx(t *testing.T) {
	diffClean(t, "regress_d.mc", `struct S1 { int f0; int f1; };
int G1 = 82;
struct S1 GS;
int h0(int p0, int p1) {
}
int main() {
	int chk = 7;
	GS.f0 = (-24 - G1);
	GS.f1 = (G1 - chk);
	int buf[4];
	struct S1 s3;
	s3.f0 = ((G1 % ((chk % 7 + 7) % 7 + 1)) + G1);
	s3.f1 = h0(GS.f0, 55);
	GS = s3;
	if ((G1 % ((GS.f1 % 7 + 7) % 7 + 1)) != (GS.f1 + G1) && (GS.f1 + chk) != (G1 % ((81 % 7 + 7) % 7 + 1))) {
		for (int i4 = 0; i4 < 6; i4++) {
			chk += ((-58 - chk) - (chk - GS.f0));
		}
		G1 += G1;
	}
	struct S1 s5;
	s5.f0 = ((-49 - G1) + s3.f1);
	s5.f1 = G1;
	chk++;
	if (s5.f1 >= (G1 + G1) || (chk + G1) <= (24 + G1)) {
		if ((G1 * G1 % 8191) >= GS.f0 && 64 < (G1 * -34 % 8191)) {
			chk++;
		}
	}
	for (int z = 0; z < 4; z++) { chk = (chk * 17 + buf[z]) % 65521; }
}`)
}

// Seed 148 (minimized): loop rotation plus constant folding deleted the
// rotated loop's entry evaluation of the condition statement, so the
// optimized build reached that statement's code fewer times than O0 and
// first-arrival matching paired different source events. This is an
// oracle alignment bug, not a classifier bug: fixed by count-based
// alignment — a key whose total arrival counts differ between the
// builds is skipped (tallied in Totals.AlignSkipped), and equal-count
// keys compare every arrival, not just the first.
func TestRegressRotatedLoopAlignment(t *testing.T) {
	diffClean(t, "regress_e.mc", `struct S0 { int f0; int f1; int f2; };
struct S1 { int f0; int f1; int f2; };
int G1 = 96;
struct S0 GS;
int h0(int p0, struct S1 sp) {
	int chk = 1;
	if ((chk - -28) > (-71 - sp.f0) && p0 <= (-81 % ((chk % 7 + 7) % 7 + 1))) {
	}
}
int h1(int p0) {
	for (int i4 = 0; i4 < 5; i4++) {
	}
}
int main() {
	int chk = 7;
	GS.f0 = G1;
	int buf[14];
	struct S1 s9;
	s9.f0 = chk;
	chk = (chk * 31 + chk) % 65521;
	int v10 = ((G1 % ((GS.f0 % 7 + 7) % 7 + 1)) / (((s9.f1 + chk) % 9 + 9) % 9 + 1));
	int v12 = G1;
	int v13 = ((-51 - GS.f0) / (((chk + GS.f1) % 9 + 9) % 9 + 1));
	v13 -= (s9.f1 + v10);
	for (int i14 = 0; i14 < 2; i14++) {
		buf[i14 % 14] = (24 / ((chk % 9 + 9) % 9 + 1));
	}
}`)
}

// Seed 91 (minimized): PDCE sank the computation completing s7.f1's
// loop-iteration value below a MarkDead that aliased its destination
// register. Marker aliases are deliberately invisible to liveness (a
// marker must never keep a dead value alive), so the sink legality
// checks could not see the dependence, and at stops between the marker
// and the sunk copy recovery read the previous iteration's value.
// Fixed by pruneSunkAliases in PDCE: sinking clears every MarkDead
// alias of the sunk destination except in the block the clone was
// prepended to (where the clone still dominates the markers). Seed 81
// is the same class.
func TestRegressSunkAliasRecovery(t *testing.T) {
	diffClean(t, "regress_f.mc", `struct S0 { int f0; int f1; };
int G1 = 72;
int G2 = 1;
struct S0 GS;
int h0(int p0) {
	if (p0 == p0) {
	}
}
int h1(int p0, int p1, int p2) {
	if (p1 >= (p0 * p0 % 8191)) {
	}
}
int main() {
	int chk = 7;
	int buf[13];
	struct S0 s7;
	s7.f0 = ((G2 + chk) - (G1 / ((G1 % 9 + 9) % 9 + 1)));
	s7.f1 = ((chk % ((G1 % 7 + 7) % 7 + 1)) + GS.f1);
	for (int q = 0; q < 6; q++) { s7.f1 = (s7.f1 * 3 + q) % 9973; }
	s7 = GS;
	if (G2 != (G2 % ((GS.f1 % 7 + 7) % 7 + 1))) {
		s7 = GS;
	}
	chk = (chk * 19 + s7.f1) % 65521;
	return chk % 256;
}`)
}

// Seed 81 (minimized): second instance of the sunk-alias class — the
// sunk definition fed s6.f1's markdead alias across a conditional
// struct copy, and recovery showed a value one iteration stale.
func TestRegressSunkAliasLoopCarried(t *testing.T) {
	diffClean(t, "regress_g.mc", `struct S0 { int f0; int f1; int f2; };
int G1 = 54;
int G2 = 30;
struct S0 GS;
int h0(int p0, struct S0 sp) {
}
int main() {
	int chk = 7;
	GS.f0 = (G2 % ((G2 % 7 + 7) % 7 + 1));
	int buf[8];
	struct S0 s6;
	s6.f0 = ((G1 + chk) % (((GS.f0 / ((-4 % 9 + 9) % 9 + 1)) % 7 + 7) % 7 + 1));
	for (int q = 0; q < 4; q++) { s6.f1 = (s6.f1 * 3 + q) % 9973; }
	s6.f1 = chk;
	if ((68 + 66) >= G1 && (chk + 16) != (69 - GS.f0)) {
		for (int i8 = 0; i8 < 3; i8++) {
			s6 = GS;
		}
	}
	chk = (chk * 19 + s6.f1) % 65521;
	return chk % 256;
}`)
}

// Seed 63 (minimized): constant folding deleted the else-branch "chk++",
// leaving a markdead with a const-8 alias in a marker-only block;
// branch chaining then bypassed that block and migrated the marker into
// a join reached by BOTH branch paths, so recovery fabricated chk=8 on
// the path where the increment never executed. Fixed in chainBranches:
// the chain stops before advancing into a block with more than one
// predecessor while markers are in flight.
func TestRegressMarkerJoinMigration(t *testing.T) {
	diffClean(t, "regress_h.mc", `struct S0 { int f0; int f1; int f2; int f3; };
int G1 = 34;
struct S0 GS;
int h0(int p0, int p1, int p2) {
	if ((16 * p1 % 8191) == p0 && (-100 % ((p1 % 7 + 7) % 7 + 1)) < (p1 - p1)) {
	}
}
int main() {
	int chk = 7;
	struct S0 s4;
	struct S0 s5;
	struct S0 s6;
	if ((G1 * s5.f3 % 8191) > (G1 + 56) && (chk + s4.f2) <= (-13 / ((s4.f0 % 9 + 9) % 9 + 1))) {
		for (int i7 = 0; i7 < 4; i7++) {
		}
	}
	for (int i11 = 0; i11 < 7; i11++) {
	}
	int v13 = ((-45 + G1) - (82 * chk % 8191));
	if ((s4.f0 + s6.f0) >= (s6.f3 / ((chk % 9 + 9) % 9 + 1))) {
		if ((GS.f3 - v13) != s5.f0) {
		} else {
			chk++;
		}
		if ((90 * v13 % 8191) > G1) {
		}
		struct S0 s17;
		s17.f3 = ((-87 + 47) - (chk + G1));
	}
}`)
}

// Seed 137 (minimized): at "return chk % 256" the reaching definition
// of chk had been replaced by assignprop and deleted by DCE, and the
// classifier's default branch returned Current with a register-alias
// recovery attached — "current through the recovery source" (§2.5).
// The structured report still read chk's stale home slot and presented
// 0 as the unwarned value. Fixed in the debugger's fillVals: a Current
// verdict carrying a recovery substitutes the recovered value as the
// value (and reports no value at all if the recovery is unreadable).
func TestRegressCurrentThroughRecovery(t *testing.T) {
	diffClean(t, "regress_i.mc", `struct S0 { int f0; int f1; int f2; int f3; };
int G1 = 46;
int G2 = 26;
int G3 = 99;
struct S0 GS;
int h0(int p0, int p1, int p2) {
}
int h1(int p0) {
}
int h2(int p0, int p1, struct S0 sp) {
	for (int i6 = 0; i6 < 4; i6++) {
	}
}
int main() {
	int chk = 7;
	int buf[13];
	struct S0 s13;
	s13.f0 = h2(chk, GS.f2, GS);
	s13.f3 = G1;
	struct S0 s14;
	struct S0 s15;
	if (G2 > (s14.f2 - G2) || (G1 + G1) >= s15.f1) {
		int v16 = (chk % (((G1 - -26) % 7 + 7) % 7 + 1));
		if (-79 != (chk + s14.f0) && (42 - G1) > (G2 + GS.f2)) {
			int v20 = (chk * (G1 - -67) % 8191);
		} else {
			G3++;
			s14.f0 = -70;
		}
	}
	chk = ((GS.f1 * G2 % 8191) + s14.f0);
	s14 = GS;
	int v21 = (G1 / (((G1 - 66) % 9 + 9) % 9 + 1));
	return chk % 256;
}`)
}

// A local array shadowing a global of the same object ID and name: O2
// keyed both addresses alike, so the global read after the inner block
// saw the local's store and x showed 7 where O0 shows 5. Fixed in
// ir.ExprKey, which now tells a global's Addr from a local's.
func TestRegressAddrShadowedGlobal(t *testing.T) {
	diffClean(t, "regress_k.mc", `int a[4];
int main() {
	a[1] = 5;
	{
		int a[4];
		a[1] = 7;
		print(a[1]);
	}
	int x = a[1];
	print(x, "\n");
	return x;
}`)
}

// Seeds 49, 176, 181: short-circuit && and || split one statement's
// code across sequential blocks, and resolving a breakpoint to every
// tagged block meant builds stopped a different number of times on the
// same arrival — mid-statement continuation blocks fired as if the
// statement were entered again. Fixed in debuginfo: a non-canonical
// instance is armed only if control can *enter* the statement there
// (an earlier different-statement instruction in the block, no
// predecessors, or a predecessor whose trailing statement differs).
// These seeds were not minimized; randprog generation is deterministic,
// so pinning the seeds pins the repros.
func TestRegressContinuationInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size seeds; covered by the corpus sweep in short mode")
	}
	for _, seed := range []int64{49, 176, 181} {
		src := randprog.Gen(seed)
		for cfgName, cfg := range DefaultConfigs() {
			ms, err := diffSource(seed, "regress_j.mc", src, map[string]compile.Config{cfgName: cfg}, 200, nil)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, cfgName, err)
			}
			for _, m := range ms {
				t.Errorf("seed %d %s: %s", seed, cfgName, m)
			}
		}
	}
}
