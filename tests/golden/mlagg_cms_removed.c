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
    uint8_t bitmap;
    uint32_t data_0;
    uint32_t data_1;
    uint32_t data_2;
    uint32_t data_3;
    uint8_t op;
    uint8_t overflow;
    uint32_t seq;
    uint64_t key;
};

__declspec(emem shared) struct { uint64_t key; uint64_t value; uint8_t valid; } ipv4_lpm[1024];
__declspec(imem shared) uint64_t port_counters[1][256];
__declspec(imem shared) uint32_t agg_seq_t[1][256];
__declspec(imem shared) uint8_t agg_bitmap_t[1][256];
__declspec(imem shared) uint32_t agg_data_t[4][256];
__declspec(imem shared) uint8_t agg_valid_t[1][256];
// hash `agg_hash_f` uses the NFP CRC accelerator
__declspec(cls shared) uint32_t cms_mem[3][1024];

int pif_plugin_device_image(EXTRACTED_HEADERS_T *headers, MATCH_DATA_T *match) {
    struct inc_header *hdr = pif_plugin_hdr_get_inc(headers);
    uint32_t valid_eth = 0;
    uint32_t valid_ip = 0;
    uint32_t ttl_ok = 0;
    uint32_t agg__t0 = 0;
    uint32_t agg__t1 = 0;
    uint32_t agg__t2 = 0;
    uint32_t agg__t3 = 0;
    uint32_t agg__t4 = 0;
    uint32_t agg__t5 = 0;
    uint32_t agg__t6 = 0;
    uint32_t agg__t7 = 0;
    uint32_t agg__t8 = 0;
    uint32_t agg__t9 = 0;
    uint32_t agg__t10 = 0;
    uint32_t agg__t11 = 0;
    uint32_t agg__t12 = 0;
    uint32_t agg__t13 = 0;
    uint32_t agg__t14 = 0;
    uint32_t agg__t15 = 0;
    uint32_t agg__t16 = 0;
    uint32_t agg__t17 = 0;
    uint32_t agg__t18 = 0;
    uint32_t agg__t19 = 0;
    uint32_t agg__t20 = 0;
    uint32_t agg__t21 = 0;
    uint32_t agg__t22 = 0;
    uint32_t agg__t23 = 0;
    uint32_t agg__t24 = 0;
    uint32_t cms__t0 = 0;
    uint32_t cms__t1 = 0;
    uint32_t cms__t2 = 0;
    uint32_t egress_port = 0;
    uint32_t new_ttl = 0;
    valid_eth = hdr.inc.ethertype == 2048;
    valid_ip = hdr.inc.ip_version == 4;
    ttl_ok = hdr.inc.ip_ttl > 0;
    if ((valid_eth == 0)) { return PIF_PLUGIN_RETURN_DROP; }
    if ((ttl_ok == 0)) { return PIF_PLUGIN_RETURN_DROP; }
    if ((meta.inc_user == 1)) { agg__t0 = crc_32(hdr.inc.seq); /* agg_hash_f */ }
    if ((meta.inc_user == 1)) { agg__t1 = agg_seq_t[0][agg__t0]; }
    if ((meta.inc_user == 1)) { agg__t2 = agg_valid_t[0][agg__t0]; }
    if ((meta.inc_user == 1)) { agg__t3 = agg_bitmap_t[0][agg__t0]; }
    if ((meta.inc_user == 1)) { agg__t4 = hdr.inc.op == 1; }
    if ((meta.inc_user == 1) && (agg__t4 != 0)) { agg__t5 = agg__t2 == 1; }
    if ((meta.inc_user == 1) && (agg__t4 != 0)) { agg__t6 = agg__t1 == hdr.inc.seq; }
    if ((meta.inc_user == 1) && (agg__t4 != 0)) { agg__t7 = agg__t5 & agg__t6; }
    if ((meta.inc_user == 1) && (agg__t4 != 0) && (agg__t7 != 0)) { agg_valid_t[0][agg__t0] = 0; }
    if ((meta.inc_user == 1) && (agg__t4 != 0)) { /* forward via normal path */ }
    if ((meta.inc_user == 1) && (agg__t4 == 0)) { agg__t8 = agg__t2 == 0; }
    if ((meta.inc_user == 1) && (agg__t4 == 0)) { agg__t9 = hdr.inc.overflow == 0; }
    if ((meta.inc_user == 1) && (agg__t4 == 0)) { agg__t10 = agg__t8 & agg__t9; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 != 0)) { agg_seq_t[0][agg__t0] = hdr.inc.seq; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 != 0)) { agg_bitmap_t[0][agg__t0] = hdr.inc.bitmap; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 != 0)) { agg_data_t[0][agg__t0] = hdr.inc.data_0; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 != 0)) { agg_data_t[1][agg__t0] = hdr.inc.data_1; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 != 0)) { agg_data_t[2][agg__t0] = hdr.inc.data_2; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 != 0)) { agg_data_t[3][agg__t0] = hdr.inc.data_3; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 != 0)) { agg_valid_t[0][agg__t0] = 1; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 != 0)) { return PIF_PLUGIN_RETURN_DROP; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0)) { agg__t11 = agg__t1 == hdr.inc.seq; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0)) { agg__t12 = agg__t3 & hdr.inc.bitmap; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0)) { agg__t13 = agg__t12 == 0; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0)) { agg__t14 = agg__t11 & agg__t13; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0)) { agg__t15 = agg_data_t[0][agg__t0]; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0)) { agg__t16 = agg__t15 + hdr.inc.data_0; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0)) { agg_data_t[0][agg__t0] = agg__t16; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0)) { hdr->data_0 = agg__t16; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0)) { agg__t17 = agg_data_t[1][agg__t0]; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0)) { agg__t18 = agg__t17 + hdr.inc.data_1; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0)) { agg_data_t[1][agg__t0] = agg__t18; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0)) { hdr->data_1 = agg__t18; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0)) { agg__t19 = agg_data_t[2][agg__t0]; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0)) { agg__t20 = agg__t19 + hdr.inc.data_2; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0)) { agg_data_t[2][agg__t0] = agg__t20; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0)) { hdr->data_2 = agg__t20; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0)) { agg__t21 = agg_data_t[3][agg__t0]; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0)) { agg__t22 = agg__t21 + hdr.inc.data_3; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0)) { agg_data_t[3][agg__t0] = agg__t22; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0)) { hdr->data_3 = agg__t22; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0)) { agg__t23 = agg__t3 | hdr.inc.bitmap; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0)) { agg__t24 = agg__t23 == 15; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0) && (agg__t24 != 0)) { agg_valid_t[0][agg__t0] = 0; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0) && (agg__t24 != 0)) { swap_and_return(headers); }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0) && (agg__t24 == 0)) { agg_bitmap_t[0][agg__t0] = agg__t23; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 != 0) && (agg__t24 == 0)) { return PIF_PLUGIN_RETURN_DROP; }
    if ((meta.inc_user == 1) && (agg__t4 == 0) && (agg__t10 == 0) && (agg__t14 == 0)) { /* forward via normal path */ }
    if ((meta.inc_user == 2)) { cms_mem[hdr.inc.key] += 1; cms__t0 = cms_mem[hdr.inc.key]; }
    if ((meta.inc_user == 2)) { cms_mem[hdr.inc.key] += 1; cms__t1 = cms_mem[hdr.inc.key]; }
    if ((meta.inc_user == 2)) { cms_mem[hdr.inc.key] += 1; cms__t2 = cms_mem[hdr.inc.key]; }
    if ((meta.inc_user == 2)) { /* forward via normal path */ }
    if ((meta.inc_user == 3)) { /* removed */ }
    if ((meta.inc_user == 3)) { /* removed */ }
    if ((meta.inc_user == 3)) { /* removed */ }
    egress_port = ipv4_lpm[hdr.inc.ip_dst];
    new_ttl = hdr.inc.ip_ttl - 1;
    hdr->ip_ttl = new_ttl;
    port_counters[egress_port] += 1;
    /* forward via normal path */
    return PIF_PLUGIN_RETURN_FORWARD;
}
