/**
 * @file
 * Unit tests for the LIR textual format: subscript grammar, deferred
 * bindings, round-tripping, and parse-error reporting.
 */

#include <gtest/gtest.h>

#include "lir/lir.hh"

namespace selvec
{
namespace
{

TEST(LirParse, MinimalLoop)
{
    ParseResult pr = parseLir(R"(
array A f64 64
loop t {
    body {
        a = load A[i]
        store A[i + 1] = a
    }
}
)");
    ASSERT_TRUE(pr.ok) << pr.error;
    ASSERT_EQ(pr.module.loops.size(), 1u);
    const Loop &loop = pr.module.loops.front();
    EXPECT_EQ(loop.numOps(), 2);
    EXPECT_EQ(loop.ops[0].ref.scale, 1);
    EXPECT_EQ(loop.ops[1].ref.offset, 1);
}

TEST(LirParse, SubscriptForms)
{
    ParseResult pr = parseLir(R"(
array A f64 4096
loop t {
    body {
        a = load A[i]
        b = load A[2i]
        c = load A[2i + 3]
        d = load A[i - 1]
        e = load A[5]
        f = load A[-1i + 40]
        s1 = fadd a b
        s2 = fadd c d
        s3 = fadd e f
        s4 = fadd s1 s2
        s5 = fadd s3 s4
        store A[3i + 7] = s5
    }
}
)");
    ASSERT_TRUE(pr.ok) << pr.error;
    const Loop &loop = pr.module.loops.front();
    EXPECT_EQ(loop.ops[0].ref.scale, 1);
    EXPECT_EQ(loop.ops[1].ref.scale, 2);
    EXPECT_EQ(loop.ops[2].ref.offset, 3);
    EXPECT_EQ(loop.ops[3].ref.offset, -1);
    EXPECT_EQ(loop.ops[4].ref.scale, 0);
    EXPECT_EQ(loop.ops[4].ref.offset, 5);
    EXPECT_EQ(loop.ops[5].ref.scale, -1);
    EXPECT_EQ(loop.ops[5].ref.offset, 40);
    EXPECT_EQ(loop.ops[11].ref.scale, 3);
    EXPECT_EQ(loop.ops[11].ref.offset, 7);
}

TEST(LirParse, CarriedUpdateDeferredBinding)
{
    ParseResult pr = parseLir(R"(
array A f64 64
loop t {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        a = load A[i]
        s1 = fadd s a
    }
    liveout s1
}
)");
    ASSERT_TRUE(pr.ok) << pr.error;
    const Loop &loop = pr.module.loops.front();
    ASSERT_EQ(loop.carried.size(), 1u);
    EXPECT_EQ(loop.valueInfo(loop.carried[0].update).name, "s1");
    EXPECT_EQ(loop.valueInfo(loop.carried[0].init).name, "s0");
}

TEST(LirParse, ArrayAttributes)
{
    ParseResult pr = parseLir(
        "array A f64 128 align 4 synthesized\narray B i64 64\n");
    ASSERT_TRUE(pr.ok) << pr.error;
    EXPECT_EQ(pr.module.arrays[0].baseAlign, 4);
    EXPECT_TRUE(pr.module.arrays[0].synthesized);
    EXPECT_EQ(pr.module.arrays[1].elemType, Type::I64);
    EXPECT_FALSE(pr.module.arrays[1].synthesized);
}

TEST(LirParse, VectorOpsAndAttributes)
{
    ParseResult pr = parseLir(R"(
array A f64 64
loop t cover 2 {
    livein c f64
    splatin cv c
    body {
        a = vload A[2i]
        b = vload A[2i + 8]
        m = vmerge a b shift 1
        p = vfmul m cv
        s = vpick p lane 1
        q = movvs p lane 0
        r = fadd s q
        ch = xfer.stores r
        g = xfer.loadv ch ch
        vstore A[2i + 16] = g
    }
}
)");
    ASSERT_TRUE(pr.ok) << pr.error;
    const Loop &loop = pr.module.loops.front();
    EXPECT_EQ(loop.coverage, 2);
    EXPECT_EQ(loop.splatIns.size(), 1u);
    EXPECT_EQ(loop.ops[2].lane, 1);
    EXPECT_EQ(loop.typeOf(loop.findValue("g")), Type::VF64);
}

TEST(LirParse, BrAsValueNameAndAsStatement)
{
    ParseResult pr = parseLir(R"(
array A f64 64
loop t {
    body {
        br = load A[i]
        store A[i + 1] = br
        br
        nop
    }
}
)");
    ASSERT_TRUE(pr.ok) << pr.error;
    const Loop &loop = pr.module.loops.front();
    EXPECT_EQ(loop.ops[2].opcode, Opcode::Br);
    EXPECT_EQ(loop.ops[3].opcode, Opcode::Nop);
}

TEST(LirParse, CommentsAndBlankLines)
{
    ParseResult pr = parseLir(R"(
# leading comment
array A f64 64   # trailing comment

loop t {
    body {
        # only a comment
        a = load A[i]   # another
        store A[i] = a
    }
}
)");
    EXPECT_TRUE(pr.ok) << pr.error;
}

struct BadCase
{
    const char *name;
    const char *text;
};

// Without a printer gtest lists a BadCase as its raw bytes, i.e. two
// string addresses, so the listed test names changed on every run
// under address-space randomization. Print the case name instead.
void
PrintTo(const BadCase &c, std::ostream *os)
{
    *os << c.name;
}

class LirErrors : public ::testing::TestWithParam<BadCase>
{
};

TEST_P(LirErrors, Rejected)
{
    ParseResult pr = parseLir(GetParam().text);
    EXPECT_FALSE(pr.ok);
    EXPECT_FALSE(pr.error.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LirErrors,
    ::testing::Values(
        BadCase{"unknown_top", "frobnicate\n"},
        BadCase{"unknown_array",
                "loop t {\n body {\n a = load Z[i]\n }\n}\n"},
        BadCase{"dup_array", "array A f64 4\narray A f64 4\n"},
        BadCase{"bad_subscript",
                "array A f64 4\nloop t {\n body {\n a = load A[j]\n "
                "}\n}\n"},
        BadCase{"unterminated_loop", "array A f64 4\nloop t {\n"},
        BadCase{"unknown_value",
                "array A f64 4\nloop t {\n body {\n store A[i] = q\n "
                "}\n}\n"},
        BadCase{"dup_value",
                "array A f64 4\nloop t {\n body {\n a = load A[i]\n a "
                "= load A[i]\n store A[i] = a\n }\n}\n"},
        BadCase{"unbound_update",
                "array A f64 4\nloop t {\n livein s0 f64\n carried s "
                "f64 init s0 update szz\n body {\n a = load A[i]\n "
                "store A[i] = a\n }\n}\n"},
        BadCase{"bad_opcode",
                "array A f64 4\nloop t {\n body {\n a = load A[i]\n b "
                "= zmul a a\n store A[i] = b\n }\n}\n"},
        BadCase{"wrong_arity",
                "array A f64 4\nloop t {\n body {\n a = load A[i]\n b "
                "= fadd a\n store A[i] = b\n }\n}\n"},
        BadCase{"trailing_tokens", "array A f64 4 5 6\n"},
        BadCase{"bad_liveout",
                "array A f64 4\nloop t {\n liveout nope\n body {\n a "
                "= load A[i]\n store A[i] = a\n }\n}\n"},
        BadCase{"empty_input_loop", "loop t\n"},
        BadCase{"missing_equals",
                "array A f64 4\nloop t {\n body {\n a load A[i]\n "
                "}\n}\n"},
        BadCase{"bad_type", "array A f80 4\n"},
        BadCase{"bad_array_size", "array A f64 many\n"},
        BadCase{"bad_livein_type",
                "array A f64 4\nloop t {\n livein s0 f80\n body {\n a "
                "= load A[i]\n store A[i] = a\n }\n}\n"},
        BadCase{"bad_coverage",
                "array A f64 4\nloop t cover x {\n body {\n a = load "
                "A[i]\n store A[i] = a\n }\n}\n"},
        BadCase{"unterminated_body",
                "array A f64 4\nloop t {\n body {\n a = load A[i]\n"},
        BadCase{"bad_int_literal",
                "array A f64 4\nloop t {\n body {\n c = iconst ten\n "
                "store A[0] = c\n }\n}\n"},
        BadCase{"bad_float_literal",
                "array A f64 4\nloop t {\n body {\n c = fconst pi\n "
                "store A[0] = c\n }\n}\n"},
        BadCase{"self_use",
                "array A f64 4\nloop t {\n body {\n a = fadd a a\n "
                "store A[0] = a\n }\n}\n"},
        BadCase{"bad_subscript_scale",
                "array A f64 4\nloop t {\n body {\n a = load A[xi + "
                "1]\n store A[i] = a\n }\n}\n"},
        BadCase{"store_missing_value",
                "array A f64 4\nloop t {\n body {\n a = load A[i]\n "
                "store A[i] =\n }\n}\n"}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(LirErrors, MultipleDiagnosticsWithLineNumbers)
{
    // One file, three independent mistakes: the parser must report
    // all of them in one pass, each anchored to its line.
    ParseResult pr = parseLir(R"(array A f64 64
loop t {
    livein s0 f80
    body {
        a = load A[i]
        b = zmul a a
        c = fadd a
        store A[i] = a
    }
}
)");
    ASSERT_FALSE(pr.ok);
    ASSERT_GE(pr.diagnostics.size(), 3u) << pr.error;
    EXPECT_EQ(pr.diagnostics[0].line, 3);
    EXPECT_EQ(pr.diagnostics[1].line, 6);
    EXPECT_EQ(pr.diagnostics[2].line, 7);
    EXPECT_NE(pr.error.find("line 3"), std::string::npos) << pr.error;
    EXPECT_NE(pr.error.find("line 6"), std::string::npos) << pr.error;
    EXPECT_NE(pr.error.find("line 7"), std::string::npos) << pr.error;
}

TEST(LirErrors, RecoveryCrossesLoopBoundaries)
{
    // A malformed loop must not swallow the diagnostics of a later
    // loop in the same file.
    ParseResult pr = parseLir(R"(array A f64 64
loop broken {
    body {
        a = zmul a a
    }
}
loop alsobad {
    body {
        b = load A[j]
        store A[i] = b
    }
}
)");
    ASSERT_FALSE(pr.ok);
    ASSERT_GE(pr.diagnostics.size(), 2u) << pr.error;
    bool saw_first = false, saw_second = false;
    for (const ParseDiag &d : pr.diagnostics) {
        if (d.line == 4)
            saw_first = true;
        if (d.line == 9)
            saw_second = true;
    }
    EXPECT_TRUE(saw_first) << pr.error;
    EXPECT_TRUE(saw_second) << pr.error;
}

TEST(LirErrors, DiagnosticCountIsCapped)
{
    // A pathological file stops at kMaxParseDiags diagnostics rather
    // than producing one per line forever.
    std::string text = "array A f64 64\nloop t {\n body {\n";
    for (int i = 0; i < 200; ++i)
        text += " v" + std::to_string(i) + " = zmul x y\n";
    text += " }\n}\n";
    ParseResult pr = parseLir(text);
    ASSERT_FALSE(pr.ok);
    EXPECT_EQ(pr.diagnostics.size(), kMaxParseDiags);
    EXPECT_NE(pr.diagnostics.back().message.find("giving up"),
              std::string::npos);
}

TEST(LirWrite, RoundTripPreservesStructure)
{
    const char *text = R"(
array X f64 300
array Y f64 300 align 4
array T f64 64 synthesized

loop work cover 2 {
    livein c f64
    livein s0 f64
    carried s f64 init s0 update s1
    splatin cv c
    preload pv vload X[2i + 2]
    carried prev vf64 init pv update a
    body {
        a = vload X[2i + 4]
        m = vmerge prev a shift 1
        b = load Y[2i + 1]
        b2 = load Y[2i + 3]
        t = fmul b c
        t2 = fmul b2 c
        ch0 = xfer.stores t
        ch1 = xfer.stores t2
        g = xfer.loadv ch0 ch1
        p = vfadd m g
        vstore T[2i] = p
        s1 = fadd s t
    }
    poststore X[2i - 1] = s1
    liveout s1
}
)";
    ParseResult first = parseLir(text);
    ASSERT_TRUE(first.ok) << first.error;
    std::string emitted = writeLir(first.module);
    ParseResult second = parseLir(emitted);
    ASSERT_TRUE(second.ok) << second.error << "\n" << emitted;

    const Loop &a = first.module.loops.front();
    const Loop &b = second.module.loops.front();
    ASSERT_EQ(a.numOps(), b.numOps());
    for (OpId i = 0; i < a.numOps(); ++i) {
        EXPECT_EQ(a.op(i).opcode, b.op(i).opcode) << "op " << i;
        EXPECT_EQ(a.op(i).ref.scale, b.op(i).ref.scale);
        EXPECT_EQ(a.op(i).ref.offset, b.op(i).ref.offset);
        EXPECT_EQ(a.op(i).lane, b.op(i).lane);
        EXPECT_EQ(a.op(i).srcs.size(), b.op(i).srcs.size());
    }
    EXPECT_EQ(a.carried.size(), b.carried.size());
    EXPECT_EQ(a.preloads.size(), b.preloads.size());
    EXPECT_EQ(a.poststores.size(), b.poststores.size());
    EXPECT_EQ(a.splatIns.size(), b.splatIns.size());
    EXPECT_EQ(a.coverage, b.coverage);
    EXPECT_EQ(first.module.arrays.size(), second.module.arrays.size());
    EXPECT_EQ(second.module.arrays[1].baseAlign, 4);
    EXPECT_TRUE(second.module.arrays[2].synthesized);
}

TEST(LirWrite, ConstantsRoundTrip)
{
    const char *text = R"(
array A f64 8
loop t {
    body {
        c = iconst -42
        f = fconst 2.5
        g = fconst -0.125
        store A[0] = f
        store A[1] = g
        ic = imov c
        s = iadd c ic
        store A[2] = f
    }
    liveout s
}
)";
    ParseResult first = parseLir(text);
    ASSERT_TRUE(first.ok) << first.error;
    ParseResult second = parseLir(writeLir(first.module));
    ASSERT_TRUE(second.ok) << second.error;
    const Loop &loop = second.module.loops.front();
    EXPECT_EQ(loop.ops[0].iimm, -42);
    EXPECT_DOUBLE_EQ(loop.ops[1].fimm, 2.5);
    EXPECT_DOUBLE_EQ(loop.ops[2].fimm, -0.125);
}

} // anonymous namespace
} // namespace selvec
