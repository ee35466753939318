// Auto-generated Micro-C for program `device_image` (Netronome NFP)
#include <nfp.h>
#include <pif_plugin.h>

struct inc_header {
    uint8_t inc_user;
    uint16_t step;
    uint16_t ethertype;
    uint8_t ip_version;
    uint8_t ip_ttl;
    uint32_t ip_dst;
    uint16_t udp_dport;
    uint64_t key;
    uint8_t op;
    uint32_t vals;
};

__declspec(emem shared) struct { uint64_t key; uint64_t value; uint8_t valid; } ipv4_lpm[1024];
__declspec(imem shared) uint64_t port_counters[1][256];
__declspec(emem shared) struct { uint64_t key; uint64_t value; uint8_t valid; } kvs_a_cache[1000];
__declspec(imem shared) uint32_t kvs_a_hits[1][1000];
__declspec(cls shared) uint32_t kvs_a_cms[3][1024];
__declspec(cls shared) uint8_t kvs_a_bf[1][1024];
// hash `kvs_a_hidx` uses the NFP CRC accelerator
__declspec(emem shared) struct { uint64_t key; uint64_t value; uint8_t valid; } kvs_b_cache[1000];
__declspec(imem shared) uint32_t kvs_b_hits[1][1000];
__declspec(cls shared) uint32_t kvs_b_cms[3][1024];
__declspec(cls shared) uint8_t kvs_b_bf[1][1024];
// hash `kvs_b_hidx` uses the NFP CRC accelerator

int pif_plugin_device_image(EXTRACTED_HEADERS_T *headers, MATCH_DATA_T *match) {
    struct inc_header *hdr = pif_plugin_hdr_get_inc(headers);
    uint32_t valid_eth = 0;
    uint32_t valid_ip = 0;
    uint32_t ttl_ok = 0;
    uint32_t kvs_a__t0 = 0;
    uint32_t kvs_a__t1 = 0;
    uint32_t kvs_a__t2 = 0;
    uint32_t kvs_a__t3 = 0;
    uint32_t kvs_a__t4 = 0;
    uint32_t kvs_a__t5 = 0;
    uint32_t kvs_a__t6 = 0;
    uint32_t kvs_a__t7 = 0;
    uint32_t kvs_a__t8 = 0;
    uint32_t kvs_b__t0 = 0;
    uint32_t kvs_b__t1 = 0;
    uint32_t kvs_b__t2 = 0;
    uint32_t kvs_b__t3 = 0;
    uint32_t kvs_b__t4 = 0;
    uint32_t kvs_b__t5 = 0;
    uint32_t kvs_b__t6 = 0;
    uint32_t kvs_b__t7 = 0;
    uint32_t kvs_b__t8 = 0;
    uint32_t egress_port = 0;
    uint32_t new_ttl = 0;
    valid_eth = hdr.inc.ethertype == 2048;
    valid_ip = hdr.inc.ip_version == 4;
    ttl_ok = hdr.inc.ip_ttl > 0;
    if ((valid_eth == 0)) { return PIF_PLUGIN_RETURN_DROP; }
    if ((ttl_ok == 0)) { return PIF_PLUGIN_RETURN_DROP; }
    if ((meta.inc_user == 1)) { kvs_a__t0 = hdr.inc.op == 1; }
    if ((meta.inc_user == 1) && (kvs_a__t0 != 0)) { kvs_a__t1 = kvs_a_cache[hdr.inc.key]; }
    if ((meta.inc_user == 1) && (kvs_a__t0 != 0)) { kvs_a__t2 = kvs_a__t1 != INC_NONE; }
    if ((meta.inc_user == 1) && (kvs_a__t0 != 0) && (kvs_a__t2 != 0)) { kvs_a__t3 = crc_32(hdr.inc.key); /* kvs_a_hidx */ }
    if ((meta.inc_user == 1) && (kvs_a__t0 != 0) && (kvs_a__t2 != 0)) { kvs_a_hits[kvs_a__t3] += 1; kvs_a__t4 = kvs_a_hits[kvs_a__t3]; }
    if ((meta.inc_user == 1) && (kvs_a__t0 != 0) && (kvs_a__t2 != 0)) { swap_and_return(headers); }
    if ((meta.inc_user == 1) && (kvs_a__t0 != 0) && (kvs_a__t2 == 0)) { kvs_a_cms[hdr.inc.key] += 1; kvs_a__t5 = kvs_a_cms[hdr.inc.key]; }
    if ((meta.inc_user == 1) && (kvs_a__t0 != 0) && (kvs_a__t2 == 0)) { kvs_a__t6 = kvs_a_cms[hdr.inc.key]; }
    if ((meta.inc_user == 1) && (kvs_a__t0 != 0) && (kvs_a__t2 == 0)) { kvs_a__t7 = kvs_a__t6 > 100; }
    if ((meta.inc_user == 1) && (kvs_a__t0 != 0) && (kvs_a__t2 == 0) && (kvs_a__t7 != 0)) { kvs_a_bf[hdr.inc.key] = 1; }
    if ((meta.inc_user == 1) && (kvs_a__t0 != 0) && (kvs_a__t2 == 0) && (kvs_a__t7 != 0)) { copy_to_CPU(hdr.inc.key); }
    if ((meta.inc_user == 1) && (kvs_a__t0 != 0) && (kvs_a__t2 == 0)) { /* forward via normal path */ }
    if ((meta.inc_user == 1) && (kvs_a__t0 == 0)) { kvs_a__t8 = hdr.inc.op == 3; }
    if ((meta.inc_user == 1) && (kvs_a__t0 == 0) && (kvs_a__t8 != 0)) { copy_to_CPU(hdr.inc.key, hdr.inc.vals); }
    if ((meta.inc_user == 1) && (kvs_a__t0 == 0) && (kvs_a__t8 != 0)) { /* forward via normal path */ }
    if ((meta.inc_user == 1) && (kvs_a__t0 == 0) && (kvs_a__t8 == 0)) { /* forward via normal path */ }
    if ((meta.inc_user == 2)) { kvs_b__t0 = hdr.inc.op == 1; }
    if ((meta.inc_user == 2) && (kvs_b__t0 != 0)) { kvs_b__t1 = kvs_b_cache[hdr.inc.key]; }
    if ((meta.inc_user == 2) && (kvs_b__t0 != 0)) { kvs_b__t2 = kvs_b__t1 != INC_NONE; }
    if ((meta.inc_user == 2) && (kvs_b__t0 != 0) && (kvs_b__t2 != 0)) { kvs_b__t3 = crc_32(hdr.inc.key); /* kvs_b_hidx */ }
    if ((meta.inc_user == 2) && (kvs_b__t0 != 0) && (kvs_b__t2 != 0)) { kvs_b_hits[kvs_b__t3] += 1; kvs_b__t4 = kvs_b_hits[kvs_b__t3]; }
    if ((meta.inc_user == 2) && (kvs_b__t0 != 0) && (kvs_b__t2 != 0)) { swap_and_return(headers); }
    if ((meta.inc_user == 2) && (kvs_b__t0 != 0) && (kvs_b__t2 == 0)) { kvs_b_cms[hdr.inc.key] += 1; kvs_b__t5 = kvs_b_cms[hdr.inc.key]; }
    if ((meta.inc_user == 2) && (kvs_b__t0 != 0) && (kvs_b__t2 == 0)) { kvs_b__t6 = kvs_b_cms[hdr.inc.key]; }
    if ((meta.inc_user == 2) && (kvs_b__t0 != 0) && (kvs_b__t2 == 0)) { kvs_b__t7 = kvs_b__t6 > 100; }
    if ((meta.inc_user == 2) && (kvs_b__t0 != 0) && (kvs_b__t2 == 0) && (kvs_b__t7 != 0)) { kvs_b_bf[hdr.inc.key] = 1; }
    if ((meta.inc_user == 2) && (kvs_b__t0 != 0) && (kvs_b__t2 == 0) && (kvs_b__t7 != 0)) { copy_to_CPU(hdr.inc.key); }
    if ((meta.inc_user == 2) && (kvs_b__t0 != 0) && (kvs_b__t2 == 0)) { /* forward via normal path */ }
    if ((meta.inc_user == 2) && (kvs_b__t0 == 0)) { kvs_b__t8 = hdr.inc.op == 3; }
    if ((meta.inc_user == 2) && (kvs_b__t0 == 0) && (kvs_b__t8 != 0)) { copy_to_CPU(hdr.inc.key, hdr.inc.vals); }
    if ((meta.inc_user == 2) && (kvs_b__t0 == 0) && (kvs_b__t8 != 0)) { /* forward via normal path */ }
    if ((meta.inc_user == 2) && (kvs_b__t0 == 0) && (kvs_b__t8 == 0)) { /* forward via normal path */ }
    egress_port = ipv4_lpm[hdr.inc.ip_dst];
    new_ttl = hdr.inc.ip_ttl - 1;
    hdr->ip_ttl = new_ttl;
    port_counters[egress_port] += 1;
    /* forward via normal path */
    return PIF_PLUGIN_RETURN_FORWARD;
}
