// Auto-generated Micro-C for program `every-op` (Netronome NFP)
#include <nfp.h>
#include <pif_plugin.h>

struct inc_header {
    uint8_t inc_user;
    uint16_t step;
    uint64_t key;
    uint8_t x_5;
    uint8_t flag;
    uint64_t wide;
    uint32_t grad;
    uint32_t n;
};

__declspec(imem shared) uint16_t rows[2][16];
__declspec(cls shared) uint64_t seq_0[8];
__declspec(cls shared) uint32_t cms[2][128];
__declspec(cls shared) uint8_t bf[2][128];
__declspec(emem shared) struct { uint64_t key; uint64_t value; uint8_t valid; } exact[64];
__declspec(emem shared) struct { uint64_t key; uint64_t value; uint8_t valid; } tern[64];
__declspec(emem shared) struct { uint64_t key; uint64_t value; uint8_t valid; } lpm[64];
__declspec(emem shared) struct { uint64_t key; uint64_t value; uint8_t valid; } idx[64];
// hash `h8` uses the NFP CRC accelerator
// hash `h32` uses the NFP CRC accelerator
// hash `hid` uses the NFP CRC accelerator
// crypto `aes` uses the NFP ECS accelerator
// crypto `ecs` uses the NFP ECS accelerator

int pif_plugin_every_op(EXTRACTED_HEADERS_T *headers, MATCH_DATA_T *match) {
    struct inc_header *hdr = pif_plugin_hdr_get_inc(headers);
    uint32_t t0 = 0;
    uint32_t u = 0;
    uint32_t v3bad = 0;
    uint32_t x_5 = 0;
    uint32_t _ = 0;
    uint32_t a0 = 0;
    uint32_t a1 = 0;
    uint32_t a2 = 0;
    uint32_t a3 = 0;
    uint32_t a4 = 0;
    uint32_t a5 = 0;
    uint32_t a6 = 0;
    uint32_t a7 = 0;
    uint32_t a8 = 0;
    uint32_t a9 = 0;
    uint32_t a10 = 0;
    uint32_t a11 = 0;
    uint32_t a12 = 0;
    uint32_t c0 = 0;
    uint32_t c1 = 0;
    uint32_t c2 = 0;
    uint32_t c3 = 0;
    uint32_t c4 = 0;
    uint32_t c5 = 0;
    uint32_t hv = 0;
    uint32_t r = 0;
    uint32_t cnt = 0;
    uint32_t enc = 0;
    uint32_t dec = 0;
    uint32_t rnd = 0;
    uint32_t ck = 0;
    t0 = 2.5;
    if ((meta.inc_user == 1)) { u = 1; }
    if ((meta.inc_user == 2) && (c0 != 0)) { v3bad = 0x00ab07; }
    if ((hdr.inc.x_5 >= 0.5)) { x_5 = INC_NONE; }
    _ = -1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000;
    if ((meta.inc_user == 1)) { a0 = t0 + hdr.inc.n; }
    if ((meta.inc_user == 2) && (c0 != 0)) { a1 = t0 - -3; }
    if ((hdr.inc.x_5 >= 0.5)) { a2 = t0 * hdr.inc.n; }
    a3 = t0 / -3;
    if ((meta.inc_user == 1)) { a4 = t0 % hdr.inc.n; }
    if ((meta.inc_user == 2) && (c0 != 0)) { a5 = t0 & -3; }
    if ((hdr.inc.x_5 >= 0.5)) { a6 = t0 | hdr.inc.n; }
    a7 = t0 ^ -3;
    if ((meta.inc_user == 1)) { a8 = t0 << hdr.inc.n; }
    if ((meta.inc_user == 2) && (c0 != 0)) { a9 = t0 >> -3; }
    if ((hdr.inc.x_5 >= 0.5)) { a10 = min(t0, hdr.inc.n); }
    a11 = max(t0, -3);
    if ((meta.inc_user == 1)) { a12 = slice(t0, hdr.inc.n); }
    if ((meta.inc_user == 2) && (c0 != 0)) { c0 = meta.step == a1; }
    if ((hdr.inc.x_5 >= 0.5)) { c1 = meta.step != a1; }
    c2 = meta.step < a1;
    if ((meta.inc_user == 1)) { c3 = meta.step <= a1; }
    if ((meta.inc_user == 2) && (c0 != 0)) { c4 = meta.step > a1; }
    if ((hdr.inc.x_5 >= 0.5)) { c5 = meta.step >= a1; }
    hv = crc_32(hdr.inc.key, x_5); /* h32 */
    if ((meta.inc_user == 1)) { hv = crc_32(); /* h8 */ }
    if ((meta.inc_user == 2) && (c0 != 0)) { r = rows[1][hv]; }
    if ((hdr.inc.x_5 >= 0.5)) { r = exact[hdr.inc.key]; }
    rows[0][hv] = r, hdr.inc.wide;
    if ((meta.inc_user == 1)) { seq_0[hv] = ; }
    if ((meta.inc_user == 2) && (c0 != 0)) { cms[1][hv] += 1; cnt = cms[1][hv]; }
    if ((hdr.inc.x_5 >= 0.5)) { bf[hv] += hdr.inc.n; }
    memset(seq_0, 0, sizeof(seq_0));
    if ((meta.inc_user == 1)) { tern[hdr.inc.key][r] = 0; }
    if ((meta.inc_user == 2) && (c0 != 0)) { return PIF_PLUGIN_RETURN_DROP; }
    if ((hdr.inc.x_5 >= 0.5)) { /* forward via normal path */ }
    swap_and_return(headers);
    if ((meta.inc_user == 1)) { swap_and_return(headers); }
    if ((meta.inc_user == 2) && (c0 != 0)) { mirror_to_host(headers); }
    if ((hdr.inc.x_5 >= 0.5)) { mirror_to_host(headers); }
    multicast(headers, 3);
    if ((meta.inc_user == 1)) { copy_to_CPU(r, hdr.inc.key); }
    if ((meta.inc_user == 2) && (c0 != 0)) { copy_to_ctl_q(); }
    if ((hdr.inc.x_5 >= 0.5)) { hdr->grad = a0; }
    /* crypto */
    if ((meta.inc_user == 1)) { /* crypto */ }
    if ((meta.inc_user == 2) && (c0 != 0)) { /* randint */ }
    if ((hdr.inc.x_5 >= 0.5)) { /* csum */ }
    /* csum */
    if ((meta.inc_user == 1)) { /* removed */ }
    return PIF_PLUGIN_RETURN_FORWARD;
}
