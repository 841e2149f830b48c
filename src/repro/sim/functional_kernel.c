/*
 * The functional core: one architectural run of a packed program, in C.
 *
 * This is FunctionalSimulator.run (repro.sim.functional) as one loop over
 * per-instruction arrays: the same semantics for every opcode, the same
 * sparse memory of aligned 64-bit words, mini-graph handles evaluated from
 * their packed MGT templates over a value list [E0, E1, 0, M0, M1, ...],
 * the same original-instruction budget (a handle may overshoot it by up to
 * its size minus one) and nops skipped without committing.  It writes the
 * trace's four columns, the final registers, the memory words in the order
 * the reference's dict holds them, and every committed static index with
 * its commit count in first-commit order (what the block profile is built
 * from).  tests/test_functional_sim.py and the `functional` fuzz oracle
 * compare the two byte for byte.
 *
 * The core reports, it never raises: a pc outside the text segment, a
 * misaligned access, a handle whose MGT entry could not be packed or an
 * allocation failure ends the run with a status code, and
 * functional_kernel.py then reruns the whole program in the reference,
 * which raises the error with its exact type and text.
 *
 * The core is reentrant: all state lives in the call's locals, its result
 * and its own heap allocations, so concurrent calls (ctypes releases the
 * GIL) never share anything mutable.
 *
 * Built on first use by repro/native.py (into one library with the timing
 * kernel) and called through ctypes from functional_kernel.py.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Opcodes (functional_kernel.py OPCODES). */
enum {
    OP_ADDL, OP_ADDLI, OP_ADDQ, OP_ADDQI, OP_SUBL, OP_SUBLI, OP_SUBQ,
    OP_SUBQI, OP_AND, OP_ANDI, OP_BIS, OP_BISI, OP_XOR, OP_XORI, OP_BIC,
    OP_ORNOT, OP_SLL, OP_SLLI, OP_SRL, OP_SRLI, OP_SRA, OP_SRAI, OP_CMPEQ,
    OP_CMPEQI, OP_CMPLT, OP_CMPLTI, OP_CMPLE, OP_CMPLEI, OP_CMPULT,
    OP_CMPULTI, OP_CMOVNE, OP_CMOVEQ, OP_S4ADDL, OP_S8ADDL, OP_S4ADDLI,
    OP_S8ADDLI, OP_LDA, OP_LDAH, OP_EXTBL, OP_EXTBLI, OP_INSBL, OP_MSKBL,
    OP_ZAPNOT, OP_SEXTB, OP_SEXTW, OP_POPCOUNT, OP_CLZ,
    OP_MULL, OP_MULQ, OP_MULLI,
    OP_ADDT, OP_SUBT, OP_CMPTLT, OP_CVTQT, OP_CVTTQ, OP_MULT, OP_DIVT,
    OP_SQRTT,
    OP_LDQ, OP_LDL, OP_LDBU, OP_LDWU, OP_LDT, OP_STQ, OP_STL, OP_STB, OP_STT,
    OP_BEQ, OP_BNE, OP_BLT, OP_BGE, OP_BGT, OP_BLE, OP_BR, OP_JSR, OP_JMP,
    OP_RET,
    OP_NOP, OP_HALT, OP_MG,
    OP_COUNT
};

/* Result codes and per-handle packing statuses (functional_kernel.py FN_*). */
enum {
    FN_OK, FN_LEFT_TEXT, FN_MISALIGNED, FN_NO_MGT, FN_UNKNOWN_MGID,
    FN_BAD_HANDLE, FN_NO_MEMORY
};

/* Trace-entry flags (repro.sim.trace TF_*) of the singleton rows. */
#define TF_CONTROL 0x01
#define TF_TAKEN_KNOWN 0x02
#define TF_TAKEN 0x04
#define TF_LOAD 0x08
#define TF_STORE 0x10
#define TF_HAS_EA 0x20
#define ROW_TAKEN (TF_CONTROL | TF_TAKEN_KNOWN | TF_TAKEN)
#define ROW_FALL (TF_CONTROL | TF_TAKEN_KNOWN)
#define ROW_LOAD (TF_LOAD | TF_HAS_EA)
#define ROW_STORE (TF_STORE | TF_HAS_EA)

/* The register file: 64 architectural registers, then a slot that always
 * reads zero (absent or hardwired-zero sources) and a slot that absorbs
 * discarded writes (functional_kernel.py READ_ZERO / WRITE_SINK). */
#define REGS 64
#define READ_ZERO 64
#define WRITE_SINK 65

#define SIGN ((uint64_t)1 << 63)
#define INSTRUCTION_BYTES 4

/* The packed program and the run's handle table.  Field order is mirrored by
 * functional_kernel.py _Packed. */
typedef struct {
    int64_t count;              /* static instructions */
    uint64_t text_base;
    uint64_t entry_pc;
    const uint8_t *op;          /* per instruction: OP_* */
    const uint8_t *rd;          /* register, or WRITE_SINK */
    const uint8_t *rs1;         /* register, or READ_ZERO */
    const uint8_t *rs2;
    const int64_t *imm;         /* immediate, target, or a handle's row */
    int64_t image_words;        /* initial memory, in the image's order */
    const uint64_t *image_addr;
    const uint64_t *image_value;
    int64_t handles;            /* rows of the handle table */
    const uint8_t *handle_status;   /* FN_OK or the status it ends a run with */
    const int32_t *handle_start;    /* first template op */
    const int32_t *handle_count;    /* template ops (the handle's size) */
    const int32_t *handle_out;      /* value slot of the output, -1: none */
    const uint8_t *handle_flags;    /* three per handle: none, taken, fall */
    const uint8_t *t_op;        /* per template op: OP_* */
    const int32_t *t_a;         /* value slots of the two operands */
    const int32_t *t_b;
    const int64_t *t_imm;
} fn_program;

/* What a run leaves behind.  The buffers are the core's; Python copies them
 * and hands the struct to repro_functional_free.  Field order is mirrored by
 * functional_kernel.py _Result. */
typedef struct {
    int64_t entries;            /* committed trace entries */
    int64_t executed;           /* original instructions */
    int64_t halted;
    uint64_t registers[REGS];
    uint32_t *index;            /* the four trace columns */
    uint64_t *next_pc;
    uint8_t *flags;
    uint64_t *ea;
    int64_t words;              /* memory words in insertion order */
    uint64_t *word_addr;
    uint64_t *word_value;
    int64_t touched;            /* committed static indices, first first */
    uint32_t *touched_index;
    int64_t *touched_count;
} fn_result;

/* -- semantics ------------------------------------------------------------ */

/* The low `bits` bits of x, sign-extended to 64. */
static uint64_t sext(uint64_t x, int bits)
{
    const uint64_t sign = (uint64_t)1 << (bits - 1);
    x &= (sign << 1) - 1;
    return (x ^ sign) - sign;
}

static int signed_less(uint64_t a, uint64_t b)
{
    return (a ^ SIGN) < (b ^ SIGN);
}

static uint64_t shift_right_arithmetic(uint64_t a, unsigned shift)
{
    const uint64_t logical = a >> shift;
    return (a & SIGN) ? logical | ~(~(uint64_t)0 >> shift) : logical;
}

static uint64_t leading_zeros(uint64_t a)
{
    uint64_t count = 0;
    while (count < 64 && !(a & (SIGN >> count)))
        count++;
    return count;
}

static uint64_t population(uint64_t a)
{
    uint64_t count = 0;
    for (; a; a &= a - 1)
        count++;
    return count;
}

static uint64_t zap_not(uint64_t a, uint64_t mask)
{
    uint64_t result = 0;
    for (int byte = 0; byte < 8; byte++)
        if (mask & ((uint64_t)1 << byte))
            result |= a & ((uint64_t)0xFF << (byte * 8));
    return result;
}

/* The square root as Python's int(float(x) ** 0.5), through the same libm. */
static uint64_t square_root(uint64_t a)
{
    if (a == 0 || (a & SIGN))
        return 0;
    return (uint64_t)pow((double)(int64_t)a, 0.5);
}

/* Result of an integer, multiply or floating-point op (the reference's
 * _ALU and _FP_FNS tables). */
static uint64_t compute(int op, uint64_t a, uint64_t b, int64_t imm)
{
    const uint64_t u = (uint64_t)imm;
    switch (op) {
    case OP_ADDL: return sext(a + b, 32);
    case OP_ADDLI: return sext(a + u, 32);
    case OP_ADDQ: return a + b;
    case OP_ADDQI: return a + u;
    case OP_SUBL: return sext(a - b, 32);
    case OP_SUBLI: return sext(a - u, 32);
    case OP_SUBQ: return a - b;
    case OP_SUBQI: return a - u;
    case OP_AND: return a & b;
    case OP_ANDI: return a & u;
    case OP_BIS: return a | b;
    case OP_BISI: return a | u;
    case OP_XOR: return a ^ b;
    case OP_XORI: return a ^ u;
    case OP_BIC: return a & ~b;
    case OP_ORNOT: return a | ~b;
    case OP_SLL: return a << (b & 63);
    case OP_SLLI: return a << (u & 63);
    case OP_SRL: return a >> (b & 63);
    case OP_SRLI: return a >> (u & 63);
    case OP_SRA: return shift_right_arithmetic(a, (unsigned)(b & 63));
    case OP_SRAI: return shift_right_arithmetic(a, (unsigned)(u & 63));
    case OP_CMPEQ: return a == b;
    case OP_CMPEQI: return a == u;
    case OP_CMPLT: return signed_less(a, b);
    case OP_CMPLTI: return signed_less(a, u);
    case OP_CMPLE: return !signed_less(b, a);
    case OP_CMPLEI: return !signed_less(u, a);
    case OP_CMPULT: return a < b;
    case OP_CMPULTI: return a < u;
    case OP_S4ADDL: return sext((a << 2) + b, 32);
    case OP_S8ADDL: return sext((a << 3) + b, 32);
    case OP_S4ADDLI: return sext((a << 2) + u, 32);
    case OP_S8ADDLI: return sext((a << 3) + u, 32);
    case OP_LDA: return a + u;
    case OP_LDAH: return a + (u << 16);
    case OP_EXTBL: return (a >> ((b & 7) * 8)) & 0xFF;
    case OP_EXTBLI: return (a >> ((u & 7) * 8)) & 0xFF;
    case OP_INSBL: return (a & 0xFF) << ((b & 7) * 8);
    case OP_MSKBL: return a & ~((uint64_t)0xFF << ((b & 7) * 8));
    case OP_ZAPNOT: return zap_not(a, u);
    case OP_SEXTB: return sext(a, 8);
    case OP_SEXTW: return sext(a, 16);
    case OP_POPCOUNT: return population(a);
    case OP_CLZ: return leading_zeros(a);
    case OP_MULL: return sext(a * b, 32);
    case OP_MULQ: return a * b;
    case OP_MULLI: return sext(a * u, 32);
    case OP_ADDT: return a + b;
    case OP_SUBT: return a - b;
    case OP_CMPTLT: return signed_less(a, b);
    case OP_CVTQT: return a;
    case OP_CVTTQ: return a;
    case OP_MULT: return a * b;
    case OP_DIVT: return b ? a / b : 0;
    case OP_SQRTT: return square_root(a);
    }
    return 0;
}

static int branch_taken(int op, uint64_t value)
{
    switch (op) {
    case OP_BEQ: return value == 0;
    case OP_BNE: return value != 0;
    case OP_BLT: return (value & SIGN) != 0;
    case OP_BGE: return (value & SIGN) == 0;
    case OP_BGT: return value != 0 && (value & SIGN) == 0;
    case OP_BLE: return value == 0 || (value & SIGN) != 0;
    }
    return 0;
}

/* Access width in bytes of a load or store (0: not a memory op). */
static unsigned width_of(int op)
{
    switch (op) {
    case OP_LDQ: case OP_LDT: case OP_STQ: case OP_STT: return 8;
    case OP_LDL: case OP_STL: return 4;
    case OP_LDWU: return 2;
    case OP_LDBU: case OP_STB: return 1;
    }
    return 0;
}

static int is_store(int op)
{
    return op == OP_STQ || op == OP_STL || op == OP_STB || op == OP_STT;
}

/* -- memory ----------------------------------------------------------------- */

/* Aligned address -> word, with the words kept in insertion order so the
 * result lists them as the reference's dict does. */
typedef struct {
    int64_t *slot;              /* 0: empty, else 1 + position */
    uint64_t mask;              /* slot count - 1 */
    uint64_t *addr;
    uint64_t *value;
    int64_t count;
    int64_t capacity;
} word_map;

static uint64_t slot_of(const word_map *m, uint64_t aligned)
{
    uint64_t hash = (aligned >> 3) * 0x9E3779B97F4A7C15ull;
    uint64_t at = (hash ^ (hash >> 29)) & m->mask;
    while (m->slot[at] && m->addr[m->slot[at] - 1] != aligned)
        at = (at + 1) & m->mask;
    return at;
}

static int map_reserve(word_map *m, int64_t wanted)
{
    if (wanted > m->capacity) {
        int64_t capacity = m->capacity ? m->capacity : 64;
        while (capacity < wanted)
            capacity *= 2;
        uint64_t *addr = realloc(m->addr, capacity * sizeof *addr);
        if (!addr)
            return 0;
        m->addr = addr;
        uint64_t *value = realloc(m->value, capacity * sizeof *value);
        if (!value)
            return 0;
        m->value = value;
        m->capacity = capacity;
    }
    if ((uint64_t)wanted * 2 > m->mask + 1 || !m->slot) {
        uint64_t slots = 128;
        while (slots < (uint64_t)wanted * 2)
            slots *= 2;
        int64_t *slot = calloc(slots, sizeof *slot);
        if (!slot)
            return 0;
        free(m->slot);
        m->slot = slot;
        m->mask = slots - 1;
        for (int64_t position = 0; position < m->count; position++)
            m->slot[slot_of(m, m->addr[position])] = position + 1;
    }
    return 1;
}

static uint64_t map_load(const word_map *m, uint64_t aligned)
{
    const int64_t position = m->slot[slot_of(m, aligned)];
    return position ? m->value[position - 1] : 0;
}

/* Position of the word at `aligned`, inserted as zero if absent; -1 when
 * out of memory. */
static int64_t map_word(word_map *m, uint64_t aligned)
{
    uint64_t at = slot_of(m, aligned);
    if (m->slot[at])
        return m->slot[at] - 1;
    if (!map_reserve(m, m->count + 1))
        return -1;
    at = slot_of(m, aligned);
    m->addr[m->count] = aligned;
    m->value[m->count] = 0;
    m->slot[at] = ++m->count;
    return m->count - 1;
}

static uint64_t load(const word_map *m, int op, uint64_t address)
{
    const unsigned width = width_of(op);
    const unsigned offset = (unsigned)(address & 7) * 8;
    const uint64_t word = map_load(m, address & ~(uint64_t)7);
    if (width == 8)
        return word;
    const uint64_t raw = (word >> offset) & (((uint64_t)1 << (width * 8)) - 1);
    return op == OP_LDL ? sext(raw, 32) : raw;
}

/* 0 when out of memory. */
static int store(word_map *m, int op, uint64_t address, uint64_t value)
{
    const unsigned width = width_of(op);
    const unsigned offset = (unsigned)(address & 7) * 8;
    const int64_t position = map_word(m, address & ~(uint64_t)7);
    if (position < 0)
        return 0;
    const uint64_t mask = width == 8 ? ~(uint64_t)0
        : ((((uint64_t)1 << (width * 8)) - 1) << offset);
    m->value[position] = (m->value[position] & ~mask) | ((value << offset) & mask);
    return 1;
}

/* -- trace ------------------------------------------------------------------ */

typedef struct {
    fn_result *r;
    int64_t capacity;
} rows;

#define GROW(field) do { \
        void *grown = realloc(t->r->field, capacity * sizeof *t->r->field); \
        if (!grown) \
            return 0; \
        t->r->field = grown; \
    } while (0)

static int rows_reserve(rows *t, int64_t capacity)
{
    GROW(index);
    GROW(next_pc);
    GROW(flags);
    GROW(ea);
    t->capacity = capacity;
    return 1;
}

/* -- the run ---------------------------------------------------------------- */

void repro_functional_free(fn_result *r)
{
    free(r->index);
    free(r->next_pc);
    free(r->flags);
    free(r->ea);
    free(r->word_addr);
    free(r->word_value);
    free(r->touched_index);
    free(r->touched_count);
    memset(r, 0, sizeof *r);
}

int repro_functional_run(const fn_program *p, int64_t budget, fn_result *r)
{
    const int64_t count = p->count;
    const uint64_t text_base = p->text_base;
    const uint8_t *const op = p->op;
    const uint8_t *const rd = p->rd;
    const uint8_t *const rs1 = p->rs1;
    const uint8_t *const rs2 = p->rs2;
    const int64_t *const imm = p->imm;
    uint64_t regs[REGS + 2] = {0};
    word_map memory = {0};
    rows trace = {r, 0};
    int64_t *commits = NULL;
    uint64_t *values = NULL;
    int64_t executed = 0, entries = 0, touched = 0;
    uint64_t pc = p->entry_pc;
    int status = FN_OK;
    int32_t widest = 0;

    memset(r, 0, sizeof *r);
    for (int64_t h = 0; h < p->handles; h++)
        if (p->handle_count[h] > widest)
            widest = p->handle_count[h];
    commits = calloc(count ? count : 1, sizeof *commits);
    values = calloc(3 + (size_t)widest, sizeof *values);
    r->touched_index = calloc(count ? count : 1, sizeof *r->touched_index);
    if (!commits || !values || !r->touched_index
            || !rows_reserve(&trace, budget < 4096 ? (budget > 16 ? budget : 16)
                                                   : 4096)
            || !map_reserve(&memory, p->image_words)) {
        status = FN_NO_MEMORY;
        goto done;
    }
    for (int64_t word = 0; word < p->image_words; word++)
        memory.value[map_word(&memory, p->image_addr[word])] =
            p->image_value[word];

    while (executed < budget) {
        const uint64_t offset = pc - text_base;
        if (pc < text_base || (offset & 3) || (offset >> 2) >= (uint64_t)count) {
            status = FN_LEFT_TEXT;
            break;
        }
        const int64_t index = (int64_t)(offset >> 2);
        const int code = op[index];
        uint64_t next_pc = pc + INSTRUCTION_BYTES, address = 0;
        int64_t size = 1;
        uint8_t flags = 0;

        switch (code) {
        case OP_NOP:
            pc = next_pc;
            continue;
        case OP_LDQ: case OP_LDL: case OP_LDBU: case OP_LDWU: case OP_LDT:
            address = regs[rs1[index]] + (uint64_t)imm[index];
            if (address % width_of(code)) {
                status = FN_MISALIGNED;
                goto done;
            }
            regs[rd[index]] = load(&memory, code, address);
            flags = ROW_LOAD;
            break;
        case OP_STQ: case OP_STL: case OP_STB: case OP_STT:
            address = regs[rs1[index]] + (uint64_t)imm[index];
            if (address % width_of(code)) {
                status = FN_MISALIGNED;
                goto done;
            }
            if (!store(&memory, code, address, regs[rs2[index]])) {
                status = FN_NO_MEMORY;
                goto done;
            }
            flags = ROW_STORE;
            break;
        case OP_BEQ: case OP_BNE: case OP_BLT: case OP_BGE: case OP_BGT:
        case OP_BLE:
            if (branch_taken(code, regs[rs1[index]])) {
                flags = ROW_TAKEN;
                next_pc = (uint64_t)imm[index];
            } else {
                flags = ROW_FALL;
            }
            break;
        case OP_BR:
            flags = ROW_TAKEN;
            next_pc = (uint64_t)imm[index];
            break;
        case OP_JSR:
            regs[rd[index]] = pc + INSTRUCTION_BYTES;
            flags = ROW_TAKEN;
            next_pc = (uint64_t)imm[index];
            break;
        case OP_JMP: case OP_RET:
            flags = ROW_TAKEN;
            next_pc = regs[rs1[index]];
            break;
        case OP_HALT:
            flags = TF_CONTROL;
            break;
        case OP_CMOVNE: case OP_CMOVEQ: {
            const uint64_t test = regs[rs1[index]];
            const int moved = code == OP_CMOVNE ? test != 0 : test == 0;
            regs[rd[index]] = moved ? regs[rs2[index]] : regs[rd[index]];
            break;
        }
        case OP_MG: {
            const int64_t h = imm[index];
            const int32_t start = p->handle_start[h];
            const int32_t ops = p->handle_count[h];
            const uint8_t *const outcome = p->handle_flags + 3 * h;
            if (p->handle_status[h] != FN_OK) {
                status = p->handle_status[h];
                goto done;
            }
            values[0] = regs[rs1[index]];
            values[1] = regs[rs2[index]];
            values[2] = 0;
            flags = outcome[0];
            for (int32_t k = 0; k < ops; k++) {
                const int t = p->t_op[start + k];
                const uint64_t a = values[p->t_a[start + k]];
                const uint64_t b = values[p->t_b[start + k]];
                const int64_t t_imm = p->t_imm[start + k];
                uint64_t value = 0;
                if (width_of(t)) {
                    address = a + (uint64_t)t_imm;
                    if (address % width_of(t)) {
                        status = FN_MISALIGNED;
                        goto done;
                    }
                    if (!is_store(t)) {
                        value = load(&memory, t, address);
                    } else if (!store(&memory, t, address, b)) {
                        status = FN_NO_MEMORY;
                        goto done;
                    }
                } else if (t == OP_BR) {
                    flags = outcome[1];
                    next_pc = (uint64_t)t_imm;
                } else if (t >= OP_BEQ && t <= OP_BLE) {
                    if (branch_taken(t, a)) {
                        flags = outcome[1];
                        next_pc = (uint64_t)t_imm;
                    } else {
                        flags = outcome[2];
                    }
                } else {
                    value = compute(t, a, b, t_imm);
                }
                values[3 + k] = value;
            }
            if (p->handle_out[h] >= 0)
                regs[rd[index]] = values[p->handle_out[h]];
            size = ops;
            break;
        }
        default:    /* integer, multiply and floating-point ops */
            regs[rd[index]] = compute(code, regs[rs1[index]], regs[rs2[index]],
                                      imm[index]);
            break;
        }

        if (entries == trace.capacity
                && !rows_reserve(&trace, trace.capacity * 2)) {
            status = FN_NO_MEMORY;
            goto done;
        }
        r->index[entries] = (uint32_t)index;
        r->next_pc[entries] = next_pc;
        r->flags[entries] = flags;
        r->ea[entries] = address;
        entries++;
        if (commits[index]++ == 0)
            r->touched_index[touched++] = (uint32_t)index;
        executed += size;
        if (code == OP_HALT) {
            r->halted = 1;
            break;
        }
        pc = next_pc;
    }

    if (status == FN_OK) {
        r->touched_count = malloc((touched ? touched : 1)
                                  * sizeof *r->touched_count);
        if (!r->touched_count)
            status = FN_NO_MEMORY;
        else
            for (int64_t k = 0; k < touched; k++)
                r->touched_count[k] = commits[r->touched_index[k]];
    }
done:
    r->entries = entries;
    r->executed = executed;
    r->touched = touched;
    memcpy(r->registers, regs, sizeof r->registers);
    r->words = memory.count;
    r->word_addr = memory.addr;
    r->word_value = memory.value;
    free(memory.slot);
    free(commits);
    free(values);
    return status;
}
